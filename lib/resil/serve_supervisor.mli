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
    budget of the {!Fault.retry} loop; backoff before attempt [k+1] is
    {!Fault.backoff} [min max_backoff_ms (backoff_ms·2^(k−1))] (defaults
    50/1000 ms). *)
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

(** {1 Sessions}

    A session serves a mutation log against one store and owns the
    protocol that makes a WAL replay land on exactly that store. Each
    {!step} appends the mutation to the WAL {e before} applying it under
    the ladder, and adds it to the restore anchor (an exact
    {!Incr.image} plus the mutations applied since); a quarantined
    mutation is logged as a {!Wal.Quarantine} record instead. The
    session {e re-anchors} — a fresh image, the WAL rotated onto it —
    every [checkpoint_every] applied mutations and after any ladder
    climb: a Rederive or Rechase rung may leave the store on a
    trajectory (fresh null ids, a re-chased index order) that no replay
    of the old anchor reproduces.

    A session is {e supervised} when it has a WAL, a [retries] budget or
    a fault plan, and {e direct} otherwise: each {!step} is then one
    {!Incr.apply}, with no image and no ladder. *)

type session

(** [start … ?wal sigma store] — serve mutations [1, 2, …] against
    [store], a saturated store of [sigma]. [wal = dir] creates the WAL
    in [dir] ({!Wal.create}). [fault_plan] stays armed
    ({!Fault.arm_seq}) until {!close}. [checkpoint_every] defaults to
    [max_int] (re-anchor only after climbs); [retries], [sleep] and
    [obs] go to {!apply}. *)
val start :
  ?retries:int ->
  ?sleep:(float -> unit) ->
  ?obs:Obs.Span.t ->
  ?checkpoint_every:int ->
  ?fault_plan:Fault.plan ->
  ?wal:string ->
  Tgds.Tgd.t list ->
  Incr.t ->
  session

(** [resume … ~dir sigma r] — continue a WAL after a crash: the store is
    {!replay}[ sigma r], the anchor is [r]'s image plus its replayed
    tail, the WAL in [dir] is reopened ({!Wal.reopen}) and the next
    mutation is [r.rec_last_seq + 1]. Always supervised. *)
val resume :
  ?retries:int ->
  ?sleep:(float -> unit) ->
  ?obs:Obs.Span.t ->
  ?checkpoint_every:int ->
  ?fault_plan:Fault.plan ->
  dir:string ->
  Tgds.Tgd.t list ->
  Wal.recovery ->
  session

(** [replay sigma r] — [r]'s image rebuilt by {!Incr.of_image}, then its
    tail applied: the store the crashed session held after
    [r.rec_last_seq], null ids included. *)
val replay : Tgds.Tgd.t list -> Wal.recovery -> Incr.t

(** [step s op] — apply [op] as mutation {!next_seq}[ s], as above. A
    direct session returns a singleton clean transcript. A fault injected
    into the WAL append escapes (a simulated crash); a violated
    precondition raises {!Fatal} (supervised) or [Invalid_argument]
    (direct). *)
val step : session -> Incr.op -> outcome

(** The current store; a ladder rung may have replaced the one the
    session started with. *)
val store : session -> Incr.t

(** The log position the next {!step} takes. *)
val next_seq : session -> int

(** Attempts run above the Repair rung, over every {!step} so far. *)
val degradations : session -> int

(** Mutations quarantined so far. *)
val quarantined : session -> int

(** Disarm the fault plan and close the WAL. The store stays readable. *)
val close : session -> unit
