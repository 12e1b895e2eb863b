(** The finite witness M(D,Σ,n) of Theorem 6.7 as the naive blocked
    chase builds it: rounds of homomorphism search over the whole
    instance, a fact-level table, and each blocked trigger keyed by a
    canonical form of its child bag, searched over the permutations of
    its constants. The reference the engine-built witness
    ({!Guarded_core.Finite_witness}) is checked against. *)

open Relational

(** [build ~n sigma db] — the blocked chase, blocking beyond depth
    [n+1] with round-robin pools of [max 3 (n+2)] representative null
    tuples per bag type; raises [Failure] past 200,000 facts. *)
val build : n:int -> Tgds.Tgd.t list -> Instance.t -> Instance.t

(** Sanity check: [m ⊇ db] and [m ⊨ sigma]. *)
val verify : Tgds.Tgd.t list -> Instance.t -> Instance.t -> bool
