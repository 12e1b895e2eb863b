(** Tree decompositions (§2 of the paper).

    A tree decomposition of a graph [G] is a tree whose nodes carry bags of
    vertices such that (1) every vertex occurs in some bag, (2) every edge is
    covered by some bag, and (3) the bags containing any fixed vertex form a
    connected subtree. The width is the maximum bag size minus one. *)

module ISet = Graph.ISet
module IMap = Graph.IMap

type t = {
  bags : ISet.t IMap.t;  (** node id -> bag *)
  tree : (int * int) list;  (** tree edges over node ids *)
}

let bags t = t.bags
let bag t n = IMap.find n t.bags

(** Width: max bag size - 1 (and -1 if there are no bags). *)
let width t =
  IMap.fold (fun _ b acc -> max acc (ISet.cardinal b)) t.bags 0 - 1

let make bags tree = { bags; tree }

(** Single-node decomposition with one bag. *)
let singleton bag = { bags = IMap.singleton 0 bag; tree = [] }

(** The tree of a decomposition as a {!Graph.t} over node ids. *)
let skeleton t =
  Graph.of_vertices_edges (IMap.fold (fun n _ acc -> n :: acc) t.bags []) t.tree

(** [verify g t] checks the three conditions of a tree decomposition of [g],
    and that the skeleton is indeed a tree (connected, acyclic). *)
let verify g t =
  let sk = skeleton t in
  let n = Graph.num_vertices sk and m = Graph.num_edges sk in
  let is_tree = n = 0 || (Graph.is_connected sk && m = n - 1) in
  let covers_vertices =
    List.for_all
      (fun v -> IMap.exists (fun _ b -> ISet.mem v b) t.bags)
      (Graph.vertices g)
  in
  let covers_edges =
    List.for_all
      (fun (u, v) ->
        IMap.exists (fun _ b -> ISet.mem u b && ISet.mem v b) t.bags)
      (Graph.edges g)
  in
  let connected_occurrence =
    List.for_all
      (fun v ->
        let occ =
          IMap.fold
            (fun n b acc -> if ISet.mem v b then ISet.add n acc else acc)
            t.bags ISet.empty
        in
        ISet.is_empty occ || Graph.is_connected (Graph.induced sk occ))
      (Graph.vertices g)
  in
  is_tree && covers_vertices && covers_edges && connected_occurrence

(** [of_elimination_order g order] builds a tree decomposition of [g] from a
    perfect-elimination-style order: eliminating [v] creates the bag
    [{v} ∪ N(v)] in the current fill-in graph, connected to the bag of the
    first later-eliminated neighbor. Standard construction; its width is the
    width of the elimination order. *)
let of_elimination_order g order =
  let position = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.add position v i) order;
  (* Fill-in simulation: maintain adjacency as mutable sets. *)
  let adj = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace adj v (Graph.neighbors g v)) order;
  let bag_of = Hashtbl.create 16 in
  let bags = ref IMap.empty and edges = ref [] and next = ref 0 in
  let node_for v = Hashtbl.find bag_of v in
  List.iter
    (fun v ->
      let nbrs =
        ISet.filter
          (fun u -> Hashtbl.find position u > Hashtbl.find position v)
          (Hashtbl.find adj v)
      in
      (* make nbrs a clique *)
      ISet.iter
        (fun u ->
          Hashtbl.replace adj u
            (ISet.union (Hashtbl.find adj u) (ISet.remove u nbrs)))
        nbrs;
      let b = ISet.add v nbrs in
      let id = !next in
      incr next;
      bags := IMap.add id b !bags;
      Hashtbl.replace bag_of v id;
      (* connect to the bag of the earliest-eliminated later neighbor *)
      match
        ISet.elements nbrs
        |> List.sort (fun a b ->
               compare (Hashtbl.find position a) (Hashtbl.find position b))
      with
      | [] -> ()
      | u :: _ ->
          (* u is eliminated after v; its bag does not exist yet, so record a
             pending edge resolved after the loop. *)
          edges := (id, u) :: !edges)
    order;
  let tree = List.map (fun (id, u) -> (id, node_for u)) !edges in
  (* The construction yields one tree per connected component (roots have no
     pending edge); stitch the roots into a chain so the result is a single
     tree. Root bags of distinct components share no vertices, so chaining
     them preserves the connected-occurrence condition. *)
  let with_parent =
    List.fold_left (fun s (id, _) -> ISet.add id s) ISet.empty tree
  in
  let roots =
    IMap.fold
      (fun id _ acc -> if ISet.mem id with_parent then acc else id :: acc)
      !bags []
  in
  let rec chain = function
    | a :: (b :: _ as rest) -> (a, b) :: chain rest
    | [ _ ] | [] -> []
  in
  { bags = !bags; tree = tree @ chain roots }

let pp ppf t =
  let pp_bag ppf (n, b) =
    Fmt.pf ppf "%d:{%a}" n Fmt.(list ~sep:(any ",") int) (ISet.elements b)
  in
  Fmt.pf ppf "@[<v>bags: %a@,tree: %a@]"
    Fmt.(list ~sep:sp pp_bag)
    (IMap.bindings t.bags)
    Fmt.(list ~sep:sp (pair ~sep:(any "-") int int))
    t.tree
