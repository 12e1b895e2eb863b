(** Bounded-treewidth CQ evaluation (Proposition 2.1): bind the candidate
    answer, decompose the remaining variables, materialize bag relations
    and sweep bottom-up with projected joins (Yannakakis). Works for any
    CQ; cost exponential only in the width found. *)

open Relational

(** Module-level registry; counter ["tw_eval.exact_fallbacks"] records
    each evaluation that fell back from exact decomposition to the
    heuristic witness because the Gaifman graph exceeded the exact
    search's vertex limit. *)
val metrics : Obs.Metrics.t

(** [entails db q c̄] — [c̄ ∈ q(D)]. *)
val entails : Instance.t -> Cq.t -> Term.const list -> bool

(** Boolean variant. *)
val holds : Instance.t -> Cq.t -> bool

(** Enumerate [q(D)] by checking every candidate tuple over the active
    domain (small arities). *)
val answers : Instance.t -> Cq.t -> Term.const list list
