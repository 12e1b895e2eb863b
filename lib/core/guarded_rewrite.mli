(** Two-stage FO rewriting for guarded OMQs (the route of Theorem D.1):
    linearize (Lemma A.3), then UCQ-rewrite over the linear Σ*
    (Proposition D.2); answering is then a single UCQ evaluation over the
    typed database — no chase at query time. *)

open Relational

type prepared = {
  db_star : Instance.t;
  rewriting : Ucq.t;
  complete : bool;  (** both stages stayed within budget *)
}

(** Run both stages. *)
val prepare : Tgds.Tgd.t list -> Instance.t -> Ucq.t -> prepared

(** Certain answers through the composed rewriting; the boolean reports
    exactness. *)
val certain :
  Tgds.Tgd.t list -> Instance.t -> Ucq.t -> Term.const list -> bool * bool

(** Boolean variant. *)
val holds : Tgds.Tgd.t list -> Instance.t -> Ucq.t -> bool * bool
