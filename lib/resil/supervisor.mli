(** A retrying supervisor around the chase.

    [run] arms a {!Fault.plan} once over the whole run (in tests and the
    CLI's [--fault-plan]; in production faults are whatever the process
    actually hits), snapshots the chase at clean pass boundaries, and on
    failure backs off and resumes from the last snapshot instead of
    restarting from scratch. After [retries] failed retries it gives up
    with a typed diagnostic. The loop is {!Fault.retry}, the one the
    [serve] ladder runs too.

    State machine of one [run]:
    {v
      attempt(k)  --fault-->    backoff; k+1 ≤ retries+1 ? retry : Failed
      attempt(k)  --success-->  Completed (k = 1) / Recovered
    v}

    Injected faults, IO errors and unexpected exceptions become attempts
    in the log or a [Failed] outcome; [Invalid_argument] (a violated
    library precondition — deterministic, retrying cannot help) escapes
    at once as {!Fault.Fatal}, without burning retries. *)

type attempt = {
  attempt : int;  (** 1-based *)
  fault : string;  (** what killed it *)
  resumed_from : int option;
      (** checkpoint level the attempt started from; [None] = scratch *)
  backoff_ms : float;  (** delay slept after this failure *)
}

type attempt_log = attempt list

type diagnostic = {
  message : string;
  attempts : attempt_log;  (** in chronological order *)
}

type outcome =
  | Completed of Tgds.Chase.result  (** first attempt succeeded *)
  | Recovered of Tgds.Chase.result * attempt_log
      (** succeeded after ≥ 1 failure *)
  | Failed of diagnostic  (** all attempts exhausted, or a precondition *)

(** [run ?policy ?max_level ?budget ?checkpoint_every ?checkpoint_path
    ?resume_from ?retries ?backoff_ms ?max_backoff_ms ?sleep ?clock
    ?fault_plan ?obs sigma facts] — supervise a chase of the database of
    [facts] under [sigma], bounded by [max_level] and [budget] as
    {!Tgds.Chase.run_store} bounds it; an attempt that starts from
    scratch loads a fresh store of them ({!Engine.Index.of_facts}).

    - [checkpoint_every] (default 1): snapshot at every Kth clean pass
      boundary (the saturating boundary always snapshots). A run takes
      snapshots only when a retry or [checkpoint_path] can read them:
      with [retries = 0] and no [checkpoint_path] it takes none;
    - [checkpoint_path]: additionally persist each snapshot to disk
      ({!Checkpoint.save});
    - [resume_from]: start from a loaded checkpoint instead of [facts];
    - [retries] (default 2): extra attempts after the first;
    - backoff before retry [k] is {!Fault.backoff}
      [min max_backoff_ms (backoff_ms · 2^(k−1))] (defaults 50/1000 ms),
      slept via [sleep] (seconds; default [Unix.sleepf] — tests inject a
      recorder);
    - [clock] feeds [After_ms] fault triggers;
    - [fault_plan] (default {!Fault.none}) is armed by {!Fault.arm_seq}
      for the whole run and disarmed on exit: trigger [k] of a counted
      plan kills attempt [k]. *)
val run :
  ?policy:Tgds.Chase.policy ->
  ?max_level:int ->
  ?budget:Obs.Budget.t ->
  ?checkpoint_every:int ->
  ?checkpoint_path:string ->
  ?resume_from:Checkpoint.t ->
  ?retries:int ->
  ?backoff_ms:float ->
  ?max_backoff_ms:float ->
  ?sleep:(float -> unit) ->
  ?clock:(unit -> float) ->
  ?fault_plan:Fault.plan ->
  ?obs:Obs.Span.t ->
  Tgds.Tgd.t list ->
  Relational.Fact.t list ->
  outcome
