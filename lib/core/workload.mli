(** Deterministic synthetic workload generators for the test and benchmark
    suites: query families of bounded and unbounded treewidth, databases
    matching them, random graphs for p-Clique, and TGD families from the
    paper's classes. *)

open Relational

(** Boolean path query of [n] edges over binary [pred] (treewidth 1). *)
val path_cq : ?pred:string -> int -> Cq.t

(** Boolean [n × m] grid query over [xpred]/[ypred] — the
    unbounded-treewidth family of §6 (treewidth [min n m]). *)
val grid_cq : ?xpred:string -> ?ypred:string -> int -> int -> Cq.t

(** Boolean [k]-clique query (treewidth [k − 1]). *)
val clique_cq : ?pred:string -> int -> Cq.t

(** Star query: a center joined to [n] leaves. *)
val star_cq : ?pred:string -> int -> Cq.t

(** Path database [E(a0,a1), …]. *)
val path_db : ?pred:string -> int -> Instance.t

(** [n × m] grid database matching {!grid_cq}. *)
val grid_db : ?xpred:string -> ?ypred:string -> int -> int -> Instance.t

(** Pseudo-random binary-relation database ([size] facts over [dom]
    constants, deterministic in [seed]). *)
val random_binary_db : ?pred:string -> dom:int -> size:int -> seed:int -> unit -> Instance.t

(** Erdős–Rényi-style random graph. *)
val random_graph : n:int -> p:float -> seed:int -> Qgraph.Graph.t

(** Random graph with a planted [k]-clique on the first [k] vertices. *)
val planted_clique : n:int -> k:int -> p:float -> seed:int -> Qgraph.Graph.t

(** Chain of inclusion dependencies [Rᵢ(x,y) → ∃z Rᵢ₊₁(y,z)]. *)
val linear_chain : depth:int -> Tgds.Tgd.t list

(** Guarded full family propagating markers along edges. *)
val guarded_full_chain : depth:int -> Tgds.Tgd.t list

(** The running university ontology (guarded, terminating chase on the
    shipped data). *)
val university_ontology : unit -> Tgds.Tgd.t list

(** Guarded ontology with an infinite chase (management chains). *)
val manager_ontology : unit -> Tgds.Tgd.t list

(** Referential-integrity constraints for the closed-world examples. *)
val referential_constraints : unit -> Tgds.Tgd.t list

(** LUBM-flavoured scalable academic workload: ontology (guarded) and
    database, sized by the number of universities. *)
val lubm :
  universities:int ->
  ?depts_per_univ:int ->
  ?profs_per_dept:int ->
  ?students_per_dept:int ->
  unit ->
  Tgds.Tgd.t list * Instance.t
