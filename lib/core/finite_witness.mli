(** Finite witnesses for strong finite controllability (Definition 6.5,
    Theorem 6.7), built by type-blocking the oblivious chase on the
    saturation engine (DESIGN.md §5, item 2): one
    {!Engine.Saturate.run} whose null chooser gives fresh nulls up to
    s-level [n+1] and, past it, takes them round-robin from a pool of
    [max 3 (n+2)] representative tuples per bag type
    ({!Tgds.Ground_closure.bag_key}). Always a finite model of
    [db ∧ Σ], for any Σ; rewired chains close into cycles of the pool's
    length, longer than any ≤ n-variable query can trace. *)

open Relational

(** [build ~n sigma db] — the blocked chase, blocking beyond depth [n+1];
    raises [Failure "Finite_witness.build: fact budget exhausted"] past
    200,000 facts. *)
val build : n:int -> Tgds.Tgd.t list -> Instance.t -> Instance.t

(** Sanity check: [m ⊇ db] and [m ⊨ sigma], the latter by one pass of
    the restricted chase over an index of [m], which fires no trigger
    iff [m ⊨ sigma]. The global null supply is left as it was. *)
val verify : Tgds.Tgd.t list -> Instance.t -> Instance.t -> bool
