(** Finite undirected graphs over integer vertices.

    The structure is a functional adjacency map; self loops are ignored on
    insertion (Gaifman graphs have none, §2 of the paper). *)

module ISet : Set.S with type elt = int
module IMap : Map.S with type key = int

type t

val empty : t

(** [add_vertex g v] ensures [v] is a vertex of [g]. *)
val add_vertex : t -> int -> t

(** [add_edge g u v] adds the undirected edge [{u,v}]; a self loop is a
    no-op beyond registering the vertex. *)
val add_edge : t -> int -> int -> t

val of_edges : (int * int) list -> t
val of_vertices_edges : int list -> (int * int) list -> t
val vertices : t -> int list
val vertex_set : t -> ISet.t
val num_vertices : t -> int
val neighbors : t -> int -> ISet.t
val degree : t -> int -> int
val mem_edge : t -> int -> int -> bool

(** Edges with [u < v], each listed once. *)
val edges : t -> (int * int) list

val num_edges : t -> int

(** [induced g vs] is the subgraph of [g] induced by the vertex set [vs]. *)
val induced : t -> ISet.t -> t

(** [remove_vertex g v] deletes [v] and all incident edges. *)
val remove_vertex : t -> int -> t

(** Connected component containing [v]. *)
val component : t -> int -> ISet.t

(** All connected components, as vertex sets. *)
val components : t -> ISet.t list

val is_connected : t -> bool

(** [is_clique g vs] holds iff every two distinct vertices of [vs] are
    adjacent in [g]. *)
val is_clique : t -> ISet.t -> bool

(** [grid k l] is the [k × l] grid of §6: an edge between cells at
    Manhattan distance one; the cell [(i,j)] (0-based) is vertex
    [i * l + j]. *)
val grid : int -> int -> t

(** Complete graph on vertices [0..n-1]. *)
val complete : int -> t

(** Simple path on vertices [0..n-1]. *)
val path : int -> t

(** Cycle on vertices [0..n-1] (n ≥ 3). *)
val cycle : int -> t

(** [has_clique g k] decides whether [g] contains a [k]-clique
    (backtracking; the ground truth for p-Clique tests). *)
val has_clique : t -> int -> bool

(** Find one [k]-clique if present. *)
val find_clique : t -> int -> int list option

val pp : Format.formatter -> t -> unit
