(** A retrying supervisor around the chase.

    [run] executes the chase under a fault trigger per attempt (from a
    {!Fault.plan} in tests, or nothing in production where faults are
    whatever the process actually hits), checkpoints at clean pass
    boundaries, and on failure backs off and resumes from the last
    checkpoint instead of restarting from scratch. After [retries]
    failed retries it gives up with a typed diagnostic.

    State machine of one [run]:
    {v
      attempt(k)  --fault-->    backoff; k+1 ≤ retries+1 ? retry : Failed
      attempt(k)  --success-->  Completed (k = 1) / Recovered
    v}

    No exception escapes: injected faults, IO errors and unexpected
    exceptions become attempts in the log or a [Failed] outcome;
    [Invalid_argument] (a violated library precondition — deterministic,
    retrying cannot help) fails fast without burning retries. *)

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

(** [run ?policy ?budget ?checkpoint_every ?checkpoint_path
    ?resume_from ?retries ?backoff_ms ?max_backoff_ms ?sleep ?clock
    ?fault_plan ?obs sigma db] — supervise a chase of [db] under
    [sigma].

    - [checkpoint_every] (default 1): take a checkpoint at every Kth
      clean pass boundary (the saturating boundary always checkpoints);
    - [checkpoint_path]: additionally persist each checkpoint to disk
      ({!Checkpoint.save});
    - [resume_from]: start from a loaded checkpoint instead of [db];
    - [retries] (default 2): extra attempts after the first;
    - backoff before retry [k] is {!Fault.backoff}
      [min max_backoff_ms (backoff_ms · 2^(k−1))] (defaults 50/1000 ms),
      slept via [sleep] (seconds; default [Unix.sleepf] — tests inject a
      recorder);
    - [clock] feeds [After_ms] fault triggers;
    - [fault_plan] (default {!Fault.none}) arms trigger [k] for attempt
      [k]. *)
val run :
  ?policy:Tgds.Chase.policy ->
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
  Relational.Instance.t ->
  outcome
