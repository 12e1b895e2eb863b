(** Per-mutation supervision for the [serve] maintenance loop.

    {!Supervisor} wraps a whole chase; this wraps {e one mutation}
    against a maintained {!Incr} store, because a serve loop must
    survive a poisoned mutation without losing the store. Each failed
    attempt climbs a typed degradation ladder:

    - {b Repair} — the fault left the store clean (the
      [incr.insert]/[incr.delete] probes fire before the first state
      change, and {!Incr.dirty} tracks interruption): apply again in
      place, the incremental repair path;
    - {b Rederive} — the store is (or was left) dirty: restore the
      pre-mutation state via [restore] (an exact {!Incr.image} plus a
      bounded replay of the mutations since — guardedness bounds what
      the replay re-derives) and apply again;
    - {b Rechase} — last rung: rebuild the whole store by a fresh chase
      of the pre-mutation base ([rechase]) and apply against that.

    Attempt [k] of [retries] runs on rung Repair for [k = 1], Rechase
    for [k = retries], Rederive in between. After [retries] failures the
    mutation is {e quarantined}: the pre-mutation store is restored and
    the caller keeps serving — later mutations still apply — with a
    diagnostic and exit code 1 at the end of the run.

    [restore] and [rechase] run under {!Fault.suspended}: an armed plan
    injects faults into the supervised apply itself, not into the
    recovery machinery, so the same plan yields the same ladder
    transcript. No exception escapes except {!Fatal} (a violated
    precondition — deterministic, retrying cannot help). *)

type rung = Repair | Rederive | Rechase

(** One attempt of the ladder, in order; a transcript ends with [`Ok]
    (the mutation applied) or all-faults (quarantined). *)
type step = {
  st_attempt : int;  (** 1-based *)
  st_rung : rung;
  st_outcome : [ `Ok | `Fault of string ];
  st_backoff_ms : float;  (** delay slept after a failed attempt *)
}

type outcome =
  | Applied of Incr.effect * step list
      (** the final step is the successful one; a singleton [`Ok]
          transcript is the clean case *)
  | Quarantined of step list * string
      (** all [retries] attempts failed; the diagnostic names the last
          fault. The store has been restored to its pre-mutation state. *)

(** A violated precondition of the apply; the same exception as
    {!Fault.Fatal}. *)
exception Fatal of string

val rung_to_string : rung -> string

(** [apply ?retries ?backoff_ms ?max_backoff_ms ?sleep ?obs ~restore
    ~rechase ~store op] — run [op] against [!store] under the ladder.
    [store] is updated in place whenever a rung replaces it (restore,
    rechase, quarantine). [retries] (default 3) is the total attempt
    budget; backoff before attempt [k+1] is {!Fault.backoff}
    [min max_backoff_ms (backoff_ms·2^(k−1))] (defaults 50/1000 ms). *)
val apply :
  ?retries:int ->
  ?backoff_ms:float ->
  ?max_backoff_ms:float ->
  ?sleep:(float -> unit) ->
  ?obs:Obs.Span.t ->
  restore:(unit -> Incr.t) ->
  rechase:(Incr.t -> Incr.t) ->
  store:Incr.t ref ->
  Incr.op ->
  outcome
