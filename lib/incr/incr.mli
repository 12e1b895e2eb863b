(** Incremental chase maintenance.

    A {!t} is a {e maintained store}: a saturated oblivious-chase instance
    kept saturated under base-fact mutations without re-chasing. The store
    records a {e derivation ledger} at firing time (via
    {!Engine.Saturate}'s [on_fire] hook): one derivation per fired
    trigger, holding the trigger's rule and binding, the grounded body
    and the grounded head. The ledger is a columnar arena of ints over
    the store's fact handles ({!Engine.Index.handle}): a derivation is a
    fixed-width block of its rule's arena, and each fact's producing and
    consuming derivations are intrusive lists threaded through the
    blocks, so the ledger boxes nothing and lives off the OCaml heap.
    Facts are decoded only where their order or spelling is observable:
    sorting the over-deleted set of a {!delete} (it fixes the re-insert
    order, hence the ids of future nulls), and writing a {!checkpoint} or
    an {!image}. This interface stays [Fact.t]-based.

    The ledger is the support graph DRed-style maintenance needs:

    - {!insert} adds a base fact and restarts the semi-naive delta
      fixpoint from it ({!Engine.Saturate.continue}), so only triggers
      whose body touches the new fact (transitively) are enumerated;
    - {!delete} removes a base fact in three phases: {e over-delete}
      (cascade through the ledger: retract every fact whose support
      includes an invalidated derivation, via {!Engine.Index.remove}),
      {e re-derive} (re-insert retracted facts that are still base or
      still carry a live derivation), and {e propagate} (delta fixpoint
      from the re-inserted facts, refiring the invalidated triggers that
      survive).

    Guardedness keeps repair local: every fact mentioning a labelled null
    derives transitively from the single trigger that invented the null,
    so an over-delete cascade is bounded by the affected subtree of the
    guarded chase forest rather than the whole instance.

    The maintained store is observationally equivalent to a fresh chase
    of the current base database: same facts up to null renaming, same
    trigger count, and {!checkpoint} re-derives the canonical s-levels
    (minimum derivation depth over the ledger — exactly the level a fresh
    chase assigns). Maintenance is defined for the {e oblivious} policy
    only: restricted-chase dismissals depend on enumeration order and are
    not ledgered, so there is nothing sound to repair against. *)

open Relational

type t

(** A base-fact mutation, as parsed from a [+fact.] / [-fact.] log. *)
type op = Insert of Fact.t | Delete of Fact.t

(** What one mutation did to the store. [e_repaired] counts facts added
    by the delta fixpoint (for an insert this includes the inserted fact
    itself); [e_overdeleted]/[e_rederived] are the delete phases'
    retractions and reinstatements; [e_deleted] is the net number of
    facts that left the store. [e_noop] marks mutations that changed
    nothing: inserting a fact already in the base, or deleting one that
    never was. *)
type effect = {
  e_op : op;
  e_noop : bool;
  e_repaired : int;
  e_overdeleted : int;
  e_rederived : int;
  e_deleted : int;
}

(** [create ?engine ?max_level ?obs sigma db] — chase [db] under [sigma]
    (oblivious policy), recording the derivation ledger as triggers fire.
    [engine] names the one saturation engine and may be omitted. When
    [max_level] cuts the chase, the store is returned {e unsaturated} and
    refuses mutations. *)
val create :
  ?engine:Tgds.Chase.engine ->
  ?max_level:int ->
  ?obs:Obs.Span.t ->
  Tgds.Tgd.t list ->
  Instance.t ->
  t

(** [of_store ?max_level ?obs sigma idx] — {!create} over a loaded
    store: every fact of [idx] (e.g. from {!Engine.Index.of_facts}) is
    a base fact, and the chase saturates [idx] in place. [create … sigma
    db] is [of_store … sigma (Engine.Index.of_instance db)]. *)
val of_store :
  ?max_level:int -> ?obs:Obs.Span.t -> Tgds.Tgd.t list -> Engine.Index.t -> t

(** The store is saturated — mutations are accepted. *)
val saturated : t -> bool

(** A mutation started changing state and died (an exception escaped
    between the first state change and completion). A dirty store is
    between consistent states: {!insert}/{!delete} refuse it — rebuild
    from an {!image} or {!of_checkpoint} instead. A fault injected at
    the [incr.insert]/[incr.delete] probe points fires {e before} the
    first state change, so it leaves the store clean and retryable. *)
val dirty : t -> bool

(** [insert ?obs t f] — add base fact [f]. Raises [Invalid_argument] on
    an unsaturated store. *)
val insert : ?obs:Obs.Span.t -> t -> Fact.t -> effect

(** [delete ?obs t f] — remove base fact [f] and repair. Facts of the
    store that still follow from the remaining base are kept (their
    nulls included); facts whose every derivation died are retracted.
    Raises [Invalid_argument] on an unsaturated store. *)
val delete : ?obs:Obs.Span.t -> t -> Fact.t -> effect

(** [apply ?obs t op] — dispatch on {!op}. *)
val apply : ?obs:Obs.Span.t -> t -> op -> effect

(** The maintained instance. *)
val instance : t -> Instance.t

(** The store's index (shared, do not mutate). *)
val index : t -> Engine.Index.t

(** Facts in the store / facts in the base database. *)
val size : t -> int

val base_size : t -> int

(** The current base database (the facts a fresh chase would start
    from). *)
val base : t -> Instance.t

(** Number of live derivations supporting a fact (0 when absent or only
    base-supported). *)
val support_count : t -> Fact.t -> int

(** Heap words reachable from the derivation ledger plus the capacity,
    in words, of its off-heap columns. Stable under insert/delete churn:
    dead derivations' blocks are reused. *)
val ledger_words : t -> int

(** The ledger's invariants: every live derivation is linked from each of
    its body and out facts, no freed block is reachable from a fact, a
    row that holds no stored fact carries no ledger state, and the live
    and base counts are right. The violations found, none when they
    hold. *)
val audit : t -> string list

(** The store's metrics registry: the usual [index.*]/[joiner.*]
    counters plus [index.removes] and the maintenance counters
    [incr.inserts], [incr.deletes], [incr.noops], [incr.repaired],
    [incr.overdeleted], [incr.rederived], [incr.deleted]. *)
val metrics : t -> Obs.Metrics.t

(** [checkpoint t] — the maintained state as a saturated
    {!Tgds.Chase.snapshot}, indistinguishable from the final checkpoint of a
    fresh chase of {!base}[ t] (up to null renaming): s-levels are
    re-derived canonically from the ledger as minimum derivation depth,
    which is exactly the level the level-wise chase assigns. The
    snapshot resumes (under {!Tgds.Chase.resume} or {!of_checkpoint}) as a
    no-op continuation. Raises [Invalid_argument] on an unsaturated
    store. *)
val checkpoint : t -> Tgds.Chase.snapshot

(** [of_checkpoint ?obs sigma snapshot] — rebuild a maintained
    store from a checkpoint by re-chasing its level-0 (base) facts,
    reconstructing the ledger. The result holds the same instance as the
    checkpoint up to null renaming. *)
val of_checkpoint :
  ?obs:Obs.Span.t -> Tgds.Tgd.t list -> Tgds.Chase.snapshot -> t

type image = {
  im_facts : (Fact.t * int) list;
      (** every fact with its s-level, in index {e storage order} (see
          {!Engine.Index.ordered_facts}) *)
  im_base : Fact.t list;  (** the base database, sorted *)
  im_ledger : ((int * Term.const list) * Fact.t list * Fact.t list) list;
      (** live derivations [(trigger key, body, outs)], sorted by key
          under [compare]; [body] and [outs] are sorted and
          duplicate-free. Every fact named here or in [im_base] is
          stored, and {!image} shares it with its [im_facts] entry
          rather than decoding it again; {!of_image} requires every one
          to be among [im_facts] and every key symbol among [im_syms]. *)
  im_syms : Term.const list;
      (** every interned constant and null, in id order — including
          symbols whose facts have since been deleted, which still hold
          their ids and keep the index layout aligned *)
  im_preds : string list;  (** every interned predicate, in id order *)
  im_level : int;
  im_null_count : int;  (** the global labelled-null counter *)
  im_counters : (string * int) list;
}
(** An {e exact} serialisation of a maintained store — unlike
    {!checkpoint}/{!of_checkpoint}, which round-trip only up to null
    renaming, [of_image (image t)] reproduces [t] trajectory-faithfully:
    same facts with the {e same} null ids, same index iteration order,
    same ledger, same null counter and metrics. Replaying a mutation log
    suffix against the rebuilt store therefore yields output
    byte-identical to the uninterrupted run — the invariant crash
    recovery of a WAL-backed [serve] is built on. *)

(** [image t] — capture the store, decoding the interned ledger: each
    stored fact is decoded once. Raises [Invalid_argument] on an
    unsaturated or dirty store. *)
val image : t -> image

(** [of_image sigma im] — rebuild the captured store exactly. Resets the
    global null counter to [im_null_count], so facts derived after the
    rebuild reuse the ids the original run would have assigned. Raises
    [Invalid_argument] when the base or ledger names a fact outside
    [im_facts], or a trigger key a symbol outside [im_syms] (a [None]
    slot included) — [Resil.Wal]'s decoder rejects such images first —
    and when a ledger entry does not fit its rule of [sigma]: a rule
    index outside it, another number of cells than the rule's body
    variables, or more body or head facts than the rule has atoms. *)
val of_image : Tgds.Tgd.t list -> image -> t

(** [report ?name t] — a run report over the store's metrics (counters
    above, no span tree unless the caller kept one). *)
val report : ?name:string -> ?span:Obs.Span.t -> t -> Obs.Report.t
