(** Finite undirected graphs over integer vertices.

    Vertices are arbitrary integers; the structure is an adjacency map. Self
    loops are ignored on insertion (Gaifman graphs have none, cf. §2 of the
    paper). The module is purely functional. *)

module ISet = Set.Make (Int)
module IMap = Map.Make (Int)

type t = { adj : ISet.t IMap.t }

let empty = { adj = IMap.empty }

(** [add_vertex g v] ensures [v] is a vertex of [g]. *)
let add_vertex g v =
  if IMap.mem v g.adj then g else { adj = IMap.add v ISet.empty g.adj }

(** [add_edge g u v] adds the undirected edge [{u,v}]; a self loop is a
    no-op beyond registering the vertex. *)
let add_edge g u v =
  let g = add_vertex (add_vertex g u) v in
  if u = v then g
  else
    let adj =
      g.adj
      |> IMap.add u (ISet.add v (IMap.find u g.adj))
      |> fun adj -> IMap.add v (ISet.add u (IMap.find v adj)) adj
    in
    { adj }

let of_edges edges = List.fold_left (fun g (u, v) -> add_edge g u v) empty edges

let of_vertices_edges vertices edges =
  let g = List.fold_left add_vertex empty vertices in
  List.fold_left (fun g (u, v) -> add_edge g u v) g edges

let vertices g = IMap.fold (fun v _ acc -> v :: acc) g.adj [] |> List.rev
let vertex_set g = IMap.fold (fun v _ acc -> ISet.add v acc) g.adj ISet.empty
let num_vertices g = IMap.cardinal g.adj

let neighbors g v =
  match IMap.find_opt v g.adj with Some s -> s | None -> ISet.empty

let degree g v = ISet.cardinal (neighbors g v)
let mem_edge g u v = ISet.mem v (neighbors g u)

(** Edges with [u < v], each listed once. *)
let edges g =
  IMap.fold
    (fun u nbrs acc ->
      ISet.fold (fun v acc -> if u < v then (u, v) :: acc else acc) nbrs acc)
    g.adj []
  |> List.rev

let num_edges g = List.length (edges g)

(** [induced g vs] is the subgraph of [g] induced by the vertex set [vs]. *)
let induced g vs =
  let adj =
    IMap.filter_map
      (fun v nbrs -> if ISet.mem v vs then Some (ISet.inter nbrs vs) else None)
      g.adj
  in
  { adj }

(** [remove_vertex g v] deletes [v] and all incident edges. *)
let remove_vertex g v =
  let adj = IMap.remove v g.adj in
  { adj = IMap.map (fun nbrs -> ISet.remove v nbrs) adj }

(** Connected component containing [v]. *)
let component g v =
  let rec bfs seen = function
    | [] -> seen
    | u :: rest ->
        if ISet.mem u seen then bfs seen rest
        else
          let seen = ISet.add u seen in
          bfs seen (ISet.elements (neighbors g u) @ rest)
  in
  bfs ISet.empty [ v ]

(** All connected components, as vertex sets. *)
let components g =
  let rec go remaining acc =
    match ISet.choose_opt remaining with
    | None -> List.rev acc
    | Some v ->
        let c = component g v in
        go (ISet.diff remaining c) (c :: acc)
  in
  go (vertex_set g) []

let is_connected g = num_vertices g <= 1 || List.length (components g) = 1

(** [is_clique g vs] holds iff every two distinct vertices of [vs] are
    adjacent in [g]. *)
let is_clique g vs =
  ISet.for_all
    (fun u -> ISet.for_all (fun v -> u = v || mem_edge g u v) vs)
    vs

(** [grid k l] is the [k × l] grid of the paper (§6): vertices are encoded
    as [i * l + j] for [1 ≤ i ≤ k], [1 ≤ j ≤ l] (0-based internally), with
    an edge between cells at Manhattan distance one. *)
let grid k l =
  let v i j = (i * l) + j in
  let g = ref empty in
  for i = 0 to k - 1 do
    for j = 0 to l - 1 do
      g := add_vertex !g (v i j);
      if i + 1 < k then g := add_edge !g (v i j) (v (i + 1) j);
      if j + 1 < l then g := add_edge !g (v i j) (v i (j + 1))
    done
  done;
  !g

(** Complete graph on vertices [0..n-1]. *)
let complete n =
  let g = ref empty in
  for i = 0 to n - 1 do
    g := add_vertex !g i;
    for j = i + 1 to n - 1 do
      g := add_edge !g i j
    done
  done;
  !g

(** Simple path on vertices [0..n-1]. *)
let path n =
  let g = ref (add_vertex empty 0) in
  for i = 0 to n - 2 do
    g := add_edge !g i (i + 1)
  done;
  if n > 0 then g := add_vertex !g (n - 1);
  !g

(** Cycle on vertices [0..n-1] (n ≥ 3). *)
let cycle n =
  let g = ref (path n) in
  if n >= 3 then g := add_edge !g (n - 1) 0;
  !g

(** [has_clique g k] decides whether [g] contains a clique of [k] vertices
    (simple backtracking; used as the ground truth for p-Clique tests). *)
let has_clique g k =
  let vs = vertices g in
  let rec extend chosen candidates k =
    if k = 0 then true
    else
      List.exists
        (fun v ->
          let nbrs = neighbors g v in
          let candidates' = List.filter (fun u -> u > v && ISet.mem u nbrs) candidates in
          extend (v :: chosen) candidates' (k - 1))
        candidates
  in
  k <= 0 || extend [] vs k

(** Find one [k]-clique if present. *)
let find_clique g k =
  let vs = vertices g in
  let rec extend chosen candidates k =
    if k = 0 then Some (List.rev chosen)
    else
      List.find_map
        (fun v ->
          let nbrs = neighbors g v in
          let candidates' = List.filter (fun u -> u > v && ISet.mem u nbrs) candidates in
          extend (v :: chosen) candidates' (k - 1))
        candidates
  in
  if k <= 0 then Some [] else extend [] vs k

let pp ppf g =
  Fmt.pf ppf "@[<v>graph: %d vertices, %d edges@,%a@]" (num_vertices g)
    (num_edges g)
    (Fmt.list ~sep:Fmt.sp (fun ppf (u, v) -> Fmt.pf ppf "%d--%d" u v))
    (edges g)
