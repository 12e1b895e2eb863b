(** Treewidth computation: cheap bounds, heuristic witnesses, and an exact
    branch-and-bound over elimination orders (practical to ≈20 vertices —
    every query in the suites). *)

exception Too_large
(** Raised by {!exact} beyond 62 vertices. *)

(** Degeneracy (MMD) lower bound on treewidth. *)
val lower_bound : Graph.t -> int

type heuristic = Min_fill | Min_degree

(** Elimination order produced by greedy heuristic scoring. *)
val heuristic_order : ?h:heuristic -> Graph.t -> int list

(** Heuristic upper bound with its witnessing decomposition. *)
val upper_bound : ?h:heuristic -> Graph.t -> int * Tree_decomposition.t

(** Exact treewidth (per connected component); raises {!Too_large} beyond
    62 vertices. *)
val exact : Graph.t -> int

(** Exact treewidth with a witnessing decomposition of that width. *)
val exact_decomposition : Graph.t -> int * Tree_decomposition.t

(** Total variant of {!exact}: [None] beyond 62 vertices instead of
    raising {!Too_large}. *)
val exact_opt : Graph.t -> int option

(** Total variant of {!exact_decomposition}. *)
val exact_decomposition_opt : Graph.t -> (int * Tree_decomposition.t) option

(** Treewidth: exact when feasible, else the heuristic upper bound (a
    warning is logged when the bounds do not meet). Edgeless nonempty
    graphs have treewidth 0 here; the paper's convention for CQs
    (treewidth 1) is applied by [Cq.treewidth]. *)
val treewidth : Graph.t -> int

(** [at_most g k] — treewidth(g) ≤ k. *)
val at_most : Graph.t -> int -> bool
