(** Index-aware homomorphism matching.

    Generalizes {!Relational.Homomorphism.fold_homs} to run against an
    {!Index} instead of a plain instance: at every step of the
    backtracking search the next atom is the one with the fewest
    candidate tuples, where candidate counts come from posting-list sizes
    (leapfrog-style cheapest-first ordering) rather than from scanning
    whole relations.

    There is one search, over compiled atoms ({!Index.catom}) and a flat
    binding environment. {!fold} and {!entails_cq} compile their atoms
    with {!compile} and run it; the chase and the enumerator run it on
    atoms they compiled once.

    {!fold_delta} is the semi-naive hook: its pivot atom is matched
    against the delta facts only, while the remaining atoms run against
    the full index. {!Saturate} pivots each body atom through the delta
    in turn to enumerate exactly the triggers that involve a fact of the
    last level.

    Every search files [joiner.candidates] (candidate tuples examined)
    and [joiner.backtracks] (failed positional matches) into the metrics
    registry of the index it runs against ({!Index.metrics}). *)

open Relational
open Relational.Term

type binding = Homomorphism.binding

(** A conjunction of atoms compiled against one store. *)
type plan = {
  atoms : Index.catom array;  (** one per atom, in input order *)
  benv : int array;  (** one slot per variable, all unbound ([-1]) *)
  vars : (string * int) list;
      (** each variable with its slot; slots are numbered by first
          occurrence *)
}

(** [compile idx atoms] — compile [atoms] with {!Index.compile_atom}
    against a fresh first-occurrence slot table. Never interns: an
    unknown predicate or constant compiles to a never-matching cell. *)
val compile : Index.t -> Atom.t list -> plan

(** The [joiner.*] counters of one store, looked up by name once and
    registered in its metrics registry only when first used by a search,
    so a run registers them iff it performs a search. A caller that
    searches one store many times (the chase's program, the enumerator's
    per-view context) resolves them once and passes them to every
    search. *)
type counters

(** [counters idx] — [idx]'s counters, not yet registered. *)
val counters : Index.t -> counters

(** [fold ~counters atoms idx f acc] — fold [f] over every homomorphism
    from [atoms] into the index, filing the search's work against
    [counters] (which must be [idx]'s). The atoms are compiled once per
    call and the binding map is built only at each full match. Each call
    hits the ["engine.join"] {!Obs.Probe} point once at entry. *)
val fold :
  counters:counters -> Atom.t list -> Index.t -> (binding -> 'a -> 'a) -> 'a -> 'a

(** [exists_compiled idx ~counters atoms ~benv lo n] — is there an
    extension of the bindings of [benv] matching every atom of the
    compiled segment [atoms.(lo..n))]? Allocation-free on the candidate
    path; the work is filed against [counters] (which must be [idx]'s).
    [atoms] is reordered in place during the search and restored before
    returning; [benv] is unchanged on return. No ["engine.join"] probe
    hit, so the probe meters joins, not answers — the enumerator's
    witness-check shape. *)
val exists_compiled :
  Index.t ->
  counters:counters ->
  Index.catom array ->
  benv:int array ->
  int ->
  int ->
  bool

(** [fold_delta idx ~counters ~pivot atoms ~benv delta ~lo ~hi f] — the
    semi-naive step, compiled: call [f ()] once per extension of [benv]
    that matches [pivot] against one of the stored facts whose handles
    {!Index.handle} the slots [lo … hi-1] of [delta] hold (in vector
    order) and every atom of
    [atoms] against the index, with the extension visible in [benv]
    during the call. Each delta fact
    counts one [joiner.candidates] of [counters] (which must be
    [idx]'s) and, when the pivot does not match it, one
    [joiner.backtracks]; [atoms] is searched as by {!exists_compiled}
    (and restored, like [benv], before returning). Hits ["engine.join"]
    once at entry, as {!fold} does. *)
val fold_delta :
  Index.t ->
  counters:counters ->
  pivot:Index.catom ->
  Index.catom array ->
  benv:int array ->
  Vec.t ->
  lo:int ->
  hi:int ->
  (unit -> unit) ->
  unit

(* ------------------------------------------------------------------ *)
(* Query evaluation over an index                                       *)
(* ------------------------------------------------------------------ *)

(** [entails_cq idx q c̄] — is [c̄ ∈ q(I)] for the indexed instance [I]?
    The candidate answer is substituted for the answer variables, as in
    §2; an answer variable that occurs in no atom accepts any constant.
    A tuple of the wrong arity is refused without a search; otherwise
    one ["engine.join"] hit. *)
val entails_cq : Index.t -> Cq.t -> const list -> bool

(** UCQ variant: some disjunct entails. *)
val entails_ucq : Index.t -> Ucq.t -> const list -> bool
