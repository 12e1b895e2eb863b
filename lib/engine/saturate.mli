(** Semi-naive saturation.

    A delta-driven fixpoint over existential rules (TGD-shaped
    body → head atom lists): level ℓ+1 enumerates only the triggers whose
    body uses at least one fact created at level ℓ — every older trigger
    was enumerated (and fired or dismissed) at the level where its last
    body fact appeared, so no level re-derives earlier levels. The
    per-level trigger sets coincide with those of the naive level-wise
    chase (the test suite's reference oracle), so the s-levels of
    Lemma A.1 are preserved exactly: a fact derived at pass ℓ has s-level
    ℓ (its body contains a level ℓ−1 fact and nothing newer). The
    s-levels live in the store itself ({!Index.level}).

    Policies mirror the chase: [Oblivious] (the paper's §2 semantics)
    fires every trigger once; [Restricted] dismisses triggers whose head
    is already witnessed at collection time.

    Observability: the run is bounded by an {!Obs.Budget.t} (facts,
    levels, wall clock) and cut {e gracefully} — the partial result is
    returned with [outcome = Partial _] instead of looping forever on a
    non-terminating program. Each pass is recorded as a [level] span
    (triggers fired/dismissed, new facts) under [?obs] when given;
    low-level counters ([index.*], [joiner.*]) accumulate in the index's
    metrics registry ({!Index.metrics}). *)

open Relational

type policy = Oblivious | Restricted

(** A TGD-shaped rule: non-empty head; head variables absent from the
    body are existential and receive fresh labelled nulls at firing.
    [Tgds.Tgd.t] is a private alias of this type, so a TGD list coerces
    to a rule list without a copy. *)
type rule = { body : Atom.t list; head : Atom.t list }

(** The engine state at a {e clean pass boundary} — a pass that completed
    without a budget violation. The facts with their s-levels determine
    everything else a continuation needs: the next pass's semi-naive delta
    is exactly the facts of [snap_level], and no trigger fired earlier can
    be re-enumerated from that delta (its body lies in levels
    ≤ [snap_level] − 1). The scalar fields carry the accumulated totals so
    a resumed run reports the same statistics as an uninterrupted one;
    [snap_null_count] pins the fresh-null supply so resuming in another
    process never re-issues a null id the snapshot holds. *)
type snapshot = {
  snap_policy : policy;
  snap_level : int;  (** last completed pass = highest s-level *)
  snap_saturated : bool;
  snap_null_count : int;  (** {!Term.null_count} at the boundary *)
  snap_triggers_fired : int;
  snap_triggers_dismissed : int;
  snap_facts : (Fact.t * int) list;
      (** every fact with its s-level, in the store's storage order
          ({!Index.ordered_facts}) *)
  snap_counters : (string * int) list;  (** index metrics, sorted by name *)
}

type result = {
  index : Index.t;
      (** the saturated store; {!Index.level} gives every fact's s-level *)
  saturated : bool;  (** no unfired trigger remained *)
  max_level : int;
  outcome : Obs.Budget.outcome;  (** [Complete] iff no budget cut the run *)
  triggers_fired : int;
  triggers_dismissed : int;  (** [Restricted] head-already-satisfied *)
  facts_per_level : int list;  (** new facts at levels 1, 2, … *)
  span : Obs.Span.t;
      (** the run's span: one [level] child per pass. A {!continue}
          without [obs] opens none and returns a shared placeholder,
          which the caller must not annotate *)
}

(** One trigger firing, reported to [?on_fire] as it happens — the hook
    the incremental-maintenance ledger files derivations with, in firing
    order. The firing is a view over the run's own scratch: it allocates
    nothing, and it is valid only during the callback (the next firing
    overwrites it). Facts are named by their {!Index.handle} in the
    run's store. *)
type firing

(** The fired rule's index in the rule list. *)
val fire_rule : firing -> int

(** The trigger's binding: [fire_cells fr] cells, the image of the body
    variables in [VarSet] order, each an interned symbol id
    ([fire_cell fr i]). Together with the rule they are the trigger's
    identity. *)
val fire_cells : firing -> int

val fire_cell : firing -> int -> int

(** The handles of the grounded body facts, one per body atom in body
    order ([fire_bodies] of them); two atoms may ground to one fact.
    They are the facts the collection phase matched, carried with the
    trigger, so firing looks none of them up again. *)
val fire_bodies : firing -> int

val fire_body : firing -> int -> int

(** The handles of the grounded head facts, one per head atom in head
    order; existential positions hold the fresh nulls. *)
val fire_outs : firing -> int

val fire_out : firing -> int -> int

(** [run ?policy ?budget ?obs ?on_pass ?on_fire ?nulls rules idx] —
    saturate the store
    [idx], in place, under [rules] until no new trigger exists or the
    budget cuts the run (the overflowing level may be cut short, as in
    the naive chase). [idx] holds the database, every fact at s-level 0
    (e.g. from {!Index.of_facts}); the first pass's delta is all of it,
    in reverse storage order.

    [on_pass ~level ~saturated take] is called after every clean pass
    boundary (including the final, saturation-discovering pass); calling
    [take ()] materialises a {!snapshot} of the state at that boundary.
    Snapshot capture is pay-per-use — skipping the thunk costs nothing.

    [on_fire] is called once per fired trigger, in firing order, after
    the trigger's whole head has landed in the index.

    [nulls fr ~level] chooses the nulls of a fired trigger [fr] whose
    rule has existentials, before its head lands at s-level [level]: the
    payloads [n] of the nulls [Null n], one per existential in [VarSet]
    order (the engine copies them out). Only {!fire_rule} and
    {!fire_cell} may be read from [fr] here. A payload need not be
    fresh: reusing one folds the new head onto nulls already stored,
    which is how the finite witness blocks the chase. Without [nulls]
    every existential gets a {!Term.fresh_null}. *)
val run :
  ?policy:policy ->
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  ?on_pass:(level:int -> saturated:bool -> (unit -> snapshot) -> unit) ->
  ?on_fire:(firing -> unit) ->
  ?nulls:(firing -> level:int -> int array) ->
  rule list ->
  Index.t ->
  result

(** [resume ?budget ?obs ?on_pass rules snapshot] — continue a
    saturation from a checkpointed boundary. The index is rebuilt from the
    snapshot's facts (metric counters restored to the checkpointed
    totals), the delta is the facts of the last level, and the loop
    proceeds as if never interrupted: the continuation fires the same
    per-pass trigger sets, so the final result agrees with the
    uninterrupted run on facts (up to renaming of nulls invented after
    the boundary), s-levels, trigger totals, and outcome. The policy is
    the snapshot's; [budget] and [rules] must match the original run.
    Side effect: the global null supply is reset to [snap_null_count]. *)
val resume :
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  ?on_pass:(level:int -> saturated:bool -> (unit -> snapshot) -> unit) ->
  ?on_fire:(firing -> unit) ->
  rule list ->
  snapshot ->
  result

type program
(** Rules compiled against one store. {!continue} keeps each rule's
    compiled plan in it for every later call, so repeated maintenance
    steps compile a rule once. It also owns the scratch of a pass (the
    delta, grouped by predicate, the next delta, the pending triggers
    and the trigger-key table), which every pass empties and refills.
    A call that raised leaves the program, like the store it runs on,
    unfit for further use. *)

val program : rule list -> Index.t -> program
(** [program rules index] — [rules] over [index], compiled lazily. *)

(** [continue ?policy … prog ~level delta] —
    drive the semi-naive fixpoint over an {e existing, already saturated}
    store after [delta] has been added to it: pass [level + 1] enumerates
    the triggers whose body touches [delta], and the loop runs to
    saturation (or a budget cut). [prog]'s store is mutated in place,
    s-levels included; [delta] holds the {!Index.handle}s of distinct
    facts already stored in it. The passes reuse the program's scratch,
    so a pass allocates none of it. The run opens its [saturate] span and
    its [level] spans only under [obs], as nothing else reads them.

    This is the incremental-maintenance entry point. Like every run, it
    remembers no trigger fired before it (a run only deduplicates within
    a pass), which is sound iff no previously fired trigger
    has a body fact in the transitive delta — exactly the invariant the
    maintenance layer establishes (new facts were never seen before;
    re-inserted facts had their dependent firings invalidated by the
    over-delete phase). It is {e not} sound to [continue] after removing
    facts without invalidating their dependents. *)
val continue :
  ?policy:policy ->
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  ?on_pass:(level:int -> saturated:bool -> (unit -> snapshot) -> unit) ->
  ?on_fire:(firing -> unit) ->
  program ->
  level:int ->
  int list ->
  result
