(** Two-stage FO rewriting for guarded OMQs (the route of Theorem D.1):
    linearize (Lemma A.3), then UCQ-rewrite over the linear Σ*
    (Proposition D.2); answering is then a single UCQ evaluation over the
    typed database — no chase at query time — run by the engine's joiner
    ([Engine.Joiner]) on an index of D*. *)

open Relational

(** Certain answers through the composed rewriting; the boolean reports
    exactness (type exploration and rewriting both stayed within
    budget). *)
val certain :
  Tgds.Tgd.t list -> Instance.t -> Ucq.t -> Term.const list -> bool * bool

(** Boolean variant. *)
val holds : Tgds.Tgd.t list -> Instance.t -> Ucq.t -> bool * bool
