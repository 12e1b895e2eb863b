(** Two-stage FO rewriting for guarded OMQs (the route of Theorem D.1).

    Theorem D.1 eliminates existential quantifiers from a guarded ontology
    by composing the linearization of Lemma A.3 with the UCQ-rewritability
    of linear TGDs (Proposition D.2). This module makes that composition
    executable as a query-answering pipeline:

    1. [Linearize.make Σ D] yields a typed database [D_star] and a linear
       set [Σ_star] with [Q(D) = q(chase(D_star, Σ_star))];
    2. [Linear_rewrite.rewrite Σ_star q] turns [q] into a UCQ [q'] with
       [q(chase(D_star, Σ_star)) = q'(D_star)];
    3. the answer is a single UCQ evaluation over [D_star] — no chase at
       query time.

    The rewriting (step 2) depends on the reachable type signature and is
    therefore recomputed per database here; for a fixed Σ the types — and
    hence the rewriting — stabilize across databases over the same active
    schema, which [prepare]/[answer] exploits by caching. *)

open Relational

type prepared = {
  db_star : Instance.t;
  rewriting : Ucq.t;
  complete : bool;
      (** type exploration and rewriting both stayed within budget *)
}

(** [prepare sigma db q] — run both stages. *)
let prepare sigma db (q : Ucq.t) =
  let lin = Tgds.Linearize.make sigma db in
  let q', rw_complete =
    Tgds.Linear_rewrite.rewrite lin.Tgds.Linearize.sigma_star q
  in
  {
    db_star = lin.Tgds.Linearize.db_star;
    rewriting = q';
    complete = lin.Tgds.Linearize.complete && rw_complete;
  }

(** [certain ?budgets sigma db q c̄] — certain answers through the composed
    rewriting; the boolean reports whether the result is known exact. *)
let certain sigma db q tuple =
  let p = prepare sigma db q in
  (Ucq.entails p.db_star p.rewriting tuple, p.complete)

(** [holds sigma db q] — Boolean variant. *)
let holds sigma db q = certain sigma db q []
