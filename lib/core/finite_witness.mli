(** Finite witnesses for strong finite controllability (Definition 6.5,
    Theorem 6.7), built by type-blocking the guarded chase with
    round-robin representative pools (DESIGN.md §5.2): always a finite
    model of [db ∧ Σ]; rewired chains close into cycles of length [n+2],
    longer than any ≤ n-variable query can trace. *)

open Relational

(** [build ~n sigma db] — the blocked chase, blocking beyond depth [n+1];
    raises [Failure] when the fact budget (200,000 facts) is exhausted. *)
val build : n:int -> Tgds.Tgd.t list -> Instance.t -> Instance.t

(** Sanity check: [m ⊇ db] and [m ⊨ sigma]. *)
val verify : Tgds.Tgd.t list -> Instance.t -> Instance.t -> bool
