(** Index-aware homomorphism matching.

    Generalizes {!Relational.Homomorphism.fold_homs} to run against an
    {!Index} instead of a plain instance: at every step of the
    backtracking search the next atom is the one with the fewest
    candidate tuples, where candidate counts come from posting-list sizes
    (leapfrog-style cheapest-first ordering) rather than from scanning
    whole relations.

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

(** [fold ?injective ?init atoms idx f acc] — fold [f] over every
    homomorphism from [atoms] into the index extending [init]. Each call
    hits the ["engine.join"] {!Obs.Probe} point once at entry. *)
val fold :
  ?injective:bool ->
  ?init:binding ->
  Atom.t list ->
  Index.t ->
  (binding -> 'a -> 'a) ->
  'a ->
  'a

(** First homomorphism, if any. *)
val find :
  ?injective:bool -> ?init:binding -> Atom.t list -> Index.t -> binding option

val exists : ?injective:bool -> ?init:binding -> Atom.t list -> Index.t -> bool

(** [exists_compiled idx atoms ~benv lo n] — {!exists} over
    the compiled segment [atoms.(lo..n)) ] with the bindings of [benv]
    as the initial assignment: is there an extension matching every
    atom of the segment? Node-for-node identical to the uncompiled
    search (selection, pending order, [joiner.*] and [index.probes]
    accounting), but allocation-free on the candidate path. [atoms] is
    reordered in place during the search and restored before returning;
    [benv] is unchanged on return. Non-injective, no
    ["engine.join"] probe hit, so the probe meters joins, not answers —
    the enumerator's witness-check shape. *)
val exists_compiled : Index.t -> Index.catom array -> benv:int array -> int -> int -> bool

(** [fold_delta idx ~pivot atoms ~benv delta f] — the semi-naive step,
    compiled: call [f ()] once per extension of [benv] that matches
    [pivot] against one of the interned fact keys [delta] (in list
    order) and every atom of [atoms] against the index, with the
    extension visible in [benv] during the call. Each delta key counts
    one [joiner.candidates] and, when the pivot does not match it, one
    [joiner.backtracks]; [atoms] is searched as by {!exists_compiled}
    (and restored, like [benv], before returning). Hits ["engine.join"]
    once at entry, as {!fold} does. *)
val fold_delta :
  Index.t ->
  pivot:Index.catom ->
  Index.catom array ->
  benv:int array ->
  int array list ->
  (unit -> unit) ->
  unit

(** All homomorphisms (exponentially many in general). *)
val all : ?injective:bool -> ?init:binding -> Atom.t list -> Index.t -> binding list

(* ------------------------------------------------------------------ *)
(* Query evaluation over an index                                       *)
(* ------------------------------------------------------------------ *)

(** [entails_cq idx q c̄] — is [c̄ ∈ q(I)] for the indexed instance [I]?
    (the candidate answer pre-binds the answer variables, as in §2). *)
val entails_cq : Index.t -> Cq.t -> const list -> bool

(** Boolean entailment [I ⊨ q]. *)
val holds_cq : Index.t -> Cq.t -> bool

(** [answers_cq idx q] — the evaluation [q(I)], deduplicated. *)
val answers_cq : Index.t -> Cq.t -> const list list

(** UCQ variants: some disjunct entails. *)
val entails_ucq : Index.t -> Ucq.t -> const list -> bool

val holds_ucq : Index.t -> Ucq.t -> bool
val answers_ucq : Index.t -> Ucq.t -> const list list
