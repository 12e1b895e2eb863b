(** Linearization of guarded TGD sets (Lemma A.3, Appendix A.1): from a
    guarded Σ and a database D, a typed database [D*] and a *linear*
    [Σ* = Σ*_tg ∪ Σ*_ex] with [Q(D) = q(chase(D_star, Σ_star))]. The
    Σ-types are {!Ground_closure}'s; types and rules are materialized on
    demand (the reachable fragment of the paper's Σ*; see DESIGN.md). *)

open Relational

type t = {
  db_star : Instance.t;  (** the typed database [D*] *)
  sigma_star : Tgd.t list;  (** the linear set [Σ*] (generator + expander) *)
  types : int;  (** the number of reachable Σ-types explored *)
  complete : bool;
      (** false iff the type budget was exhausted or a bodiless rule has
          an existential head *)
}

(** [make sigma db] — run the construction. Requires Σ guarded. A
    bodiless rule of Σ fires once, as in the chase: its head is added to
    D before D is typed. [complete = false] signals that the type budget
    (4000 reachable types) was hit, or that a bodiless rule has an
    existential head, which D* cannot hold (results then sound but
    possibly missing answers). *)
val make : Tgd.t list -> Instance.t -> t
