(** Tree decompositions (§2 of the paper): trees of bags covering every
    vertex and edge, with connected occurrence sets. *)

module ISet = Graph.ISet
module IMap = Graph.IMap

type t

val make : ISet.t IMap.t -> (int * int) list -> t

(** Single-node decomposition with one bag. *)
val singleton : ISet.t -> t

val bags : t -> ISet.t IMap.t
val bag : t -> int -> ISet.t

(** Width: max bag size − 1 (and −1 if there are no bags). *)
val width : t -> int

(** The tree of the decomposition as a {!Graph.t} over node ids. *)
val skeleton : t -> Graph.t

(** [verify g t] checks the three conditions of §2 and that the skeleton
    is a tree. *)
val verify : Graph.t -> t -> bool

(** [of_elimination_order g order] builds a tree decomposition from an
    elimination order; its width is the width of the order. Disconnected
    inputs yield one subtree per component, stitched into a single tree. *)
val of_elimination_order : Graph.t -> int list -> t

val pp : Format.formatter -> t -> unit
