(** Streaming answer enumeration over an indexed fact store.

    The generate-and-test evaluation of a non-Boolean UCQ — materialize
    every [|adom|^arity] candidate tuple and run a full entailment check
    on each — is asymptotically wrong for a system meant to serve answer
    workloads: its cost scales with the domain raised to the query arity,
    not with the output. This module enumerates the answers directly by
    walking the {!Index} posting lists (the worst-case-optimal-join /
    leapfrog line of engines), so the cost scales with the number of
    matches actually found:

    - per disjunct, a backtracking search expands the pending atom with
      the fewest index candidates {e among the atoms still containing an
      unbound answer variable} — answer variables bind as early as
      possible;
    - the moment every answer variable occurring in atoms is bound, the
      remaining (purely existential) atoms are checked for {e
      satisfiability} with {!Joiner.exists_compiled} instead of being
      enumerated — one witness is enough, so a tuple's cost never
      depends on how many homomorphisms support it;
    - duplicate answer bindings are pruned {e during} the search (a
      subtree whose answer variables are all bound to an
      already-emitted tuple is cut), and answers are deduplicated across
      disjuncts into one canonical sorted set;
    - answers are restricted to [universe] (certain-answer semantics:
      tuples range over the active domain of the {e input} database, so
      labelled nulls invented by a chase are never answers — nulls are
      filtered from [universe] on entry);
    - answer variables that occur in no atom of a disjunct range over
      the whole [universe], matching the generate-and-test semantics.

    {2 Interned fast path}

    The search itself runs on interned ints (compiled atoms, flat
    binding environments, an int-tuple seen-set, an answer arena), and a
    request allocates O(query + answers) minor words rather than
    O(search tree) — the property that lets concurrent server domains
    scale instead of serializing on OCaml 5's stop-the-world minor-GC
    barriers. {!ctx} captures the reusable scratch for one consumer
    (build once per worker, reuse across requests); {!run_interned}
    returns answers as id rows that render or count without
    materializing, and {!materialize} converts to the classic sorted
    [const list list] on demand. {!cq}/{!ucq} wrap the two steps for
    one-shot callers and behave exactly as before.

    Observability: [?obs] gains one child span per disjunct (attributes:
    disjunct index, candidates scanned, answers emitted). [?budget] cuts
    the enumeration gracefully mid-stream: the fact axis bounds the
    number of {e answers} emitted, the deadline axis is checked at every
    search node, and a violated budget returns the prefix enumerated so
    far with a [Partial] outcome — the prefix is always a subset of the
    exact answer set. *)

open Relational
open Relational.Term

type result = {
  answers : const list list;
      (** the canonical answer set: sorted, duplicate-free, null-free *)
  outcome : Obs.Budget.outcome;
      (** [Complete], or [Partial v] when [budget] cut the enumeration *)
}

type ctx
(** Reusable evaluation scratch bound to one store and answer universe:
    the compiled universe (null-free, sorted), the cross-disjunct
    seen-set and the answer arena. Create one per consumer ({e never}
    share across domains — a server worker builds one per view) and
    reuse it across requests; each {!run_interned} call resets it. *)

val ctx : universe:ConstSet.t -> Index.t -> ctx
(** [ctx ~universe idx] — build the scratch. Nulls are filtered from
    [universe] here; universe constants unknown to the store are mapped
    to private synthetic ids so enumeration stays all-int. *)

type interned
(** An answer set as interned id rows, in emission order. Counting and
    rendering read it directly; the canonical sorted order is computed
    lazily on first access, so [count] consumers never pay a sort. *)

val run_interned :
  ?budget:Obs.Budget.t -> ?obs:Obs.Span.t -> ctx -> Cq.t list -> interned
(** Enumerate the union of the disjuncts' answers into [ctx]'s arena.
    The result aliases nothing mutable: it remains valid after the next
    request reuses [ctx]. *)

val ucq_interned :
  ?budget:Obs.Budget.t -> ?obs:Obs.Span.t -> ctx -> Ucq.t -> interned

val icount : interned -> int
(** Number of (distinct) answers — no sort, no materialization. *)

val ioutcome : interned -> Obs.Budget.outcome

val iconst : interned -> int -> const
(** Extern one answer cell id. O(1), allocation-free for store ids. *)

val sorted_rows : interned -> int array array
(** The rows in canonical order (the order {!result}[.answers] lists
    them), computed on first call and cached. The caller must not
    mutate the returned arrays. *)

val materialize : interned -> result
(** The classic materialized form: sorted, duplicate-free tuples of
    constants. One pass over the rows. *)

val of_answers : const list list -> Obs.Budget.outcome -> interned
(** An interned result over a private symbol assignment — for tests and
    renderers that need an {!interned} without a store. *)

(** [ucq ~universe idx u] — the union of the disjuncts' answers,
    deduplicated into one canonical sorted set. The budget spans the
    whole union (the fact axis counts distinct answers across
    disjuncts). *)
val ucq :
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  universe:ConstSet.t ->
  Index.t ->
  Ucq.t ->
  result
