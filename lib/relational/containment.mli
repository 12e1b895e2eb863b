(** Classical (constraint-free) containment of CQs and UCQs
    (Chandra–Merlin, [17]). *)

(** [cq_contained q1 q2] — [q1 ⊆ q2]. *)
val cq_contained : Cq.t -> Cq.t -> bool

val cq_equivalent : Cq.t -> Cq.t -> bool

(** [u1 ⊆ u2] — every disjunct of [u1] contained in some disjunct of
    [u2]. *)
val ucq_contained : Ucq.t -> Ucq.t -> bool

(** Drop disjuncts subsumed by other disjuncts. *)
val minimize_ucq : Ucq.t -> Ucq.t
