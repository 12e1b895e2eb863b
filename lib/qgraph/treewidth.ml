(** Treewidth computation.

    Provides cheap lower bounds (degeneracy / MMD), heuristic upper bounds
    with witnesses (min-fill and min-degree elimination orders), and an exact
    branch-and-bound over elimination orders with memoization, practical to
    roughly 20 vertices — enough for every query used in the test and bench
    suites. Graphs are first compacted to indices [0..n-1] and represented
    as bitmask adjacency arrays (requires n ≤ 62 for the exact solver). *)

module ISet = Graph.ISet
module IMap = Graph.IMap

(* ------------------------------------------------------------------ *)
(* Compact bitmask representation                                      *)
(* ------------------------------------------------------------------ *)

type compact = {
  n : int;
  adj : int array;  (** adj.(i) = bitmask of neighbors of i *)
  back : int array;  (** index -> original vertex *)
}

let compact_of_graph g =
  let vs = Graph.vertices g in
  let n = List.length vs in
  let back = Array.of_list vs in
  let index = Hashtbl.create n in
  Array.iteri (fun i v -> Hashtbl.add index v i) back;
  let adj = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      let i = Hashtbl.find index u and j = Hashtbl.find index v in
      adj.(i) <- adj.(i) lor (1 lsl j);
      adj.(j) <- adj.(j) lor (1 lsl i))
    (Graph.edges g);
  { n; adj; back }

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
  go x 0

(* Neighbors of [v] in the fill graph where the vertex set [eliminated] has
   been eliminated: vertices u ∉ eliminated, u ≠ v, reachable from v via a
   path whose internal vertices all lie in [eliminated]. *)
let fill_neighbors c eliminated v =
  let seen = ref (1 lsl v) in
  let result = ref 0 in
  let frontier = ref (c.adj.(v) land lnot !seen) in
  while !frontier <> 0 do
    let u = !frontier land - !frontier in
    frontier := !frontier land lnot u;
    if !seen land u = 0 then begin
      seen := !seen lor u;
      let i = popcount (u - 1) in
      if eliminated land u <> 0 then
        frontier := !frontier lor (c.adj.(i) land lnot !seen)
      else result := !result lor u
    end
  done;
  !result

(* ------------------------------------------------------------------ *)
(* Lower bound: degeneracy (a.k.a. MMD)                                 *)
(* ------------------------------------------------------------------ *)

(** Degeneracy lower bound: the maximum over the elimination of minimum
    degree vertices. A graph of treewidth k is k-degenerate, so the
    degeneracy is a lower bound on treewidth. *)
let lower_bound g =
  let rec go g best =
    if Graph.num_vertices g = 0 then best
    else
      let v, d =
        List.fold_left
          (fun (bv, bd) v ->
            let d = Graph.degree g v in
            if d < bd then (v, d) else (bv, bd))
          (-1, max_int) (Graph.vertices g)
      in
      go (Graph.remove_vertex g v) (max best d)
  in
  if Graph.num_vertices g = 0 then 0 else go g 0

(* ------------------------------------------------------------------ *)
(* Upper bound heuristics (min-fill, min-degree)                        *)
(* ------------------------------------------------------------------ *)

type heuristic = Min_fill | Min_degree

(* Number of fill edges created by eliminating v from the adjacency table. *)
let fill_cost adj v =
  let nbrs = Hashtbl.find adj v in
  let cost = ref 0 in
  ISet.iter
    (fun u ->
      ISet.iter
        (fun w ->
          if u < w && not (ISet.mem w (Hashtbl.find adj u)) then incr cost)
        nbrs)
    nbrs;
  !cost

(** [heuristic_order ?h g] produces an elimination order by repeatedly
    eliminating the vertex minimizing the heuristic score. *)
let heuristic_order ?(h = Min_fill) g =
  let adj = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace adj v (Graph.neighbors g v)) (Graph.vertices g);
  let remaining = ref (Graph.vertex_set g) in
  let order = ref [] in
  while not (ISet.is_empty !remaining) do
    let score v =
      match h with
      | Min_degree -> ISet.cardinal (Hashtbl.find adj v)
      | Min_fill -> fill_cost adj v
    in
    let v =
      ISet.fold
        (fun v (bv, bs) ->
          let s = score v in
          if s < bs then (v, s) else (bv, bs))
        !remaining (-1, max_int)
      |> fst
    in
    let nbrs = Hashtbl.find adj v in
    ISet.iter
      (fun u ->
        Hashtbl.replace adj u
          (ISet.remove v (ISet.union (Hashtbl.find adj u) (ISet.remove u nbrs))))
      nbrs;
    remaining := ISet.remove v !remaining;
    order := v :: !order
  done;
  List.rev !order

(** Heuristic upper bound together with its witnessing decomposition. *)
let upper_bound ?(h = Min_fill) g =
  if Graph.num_vertices g = 0 then (0, Tree_decomposition.singleton ISet.empty)
  else
    let order = heuristic_order ~h g in
    let td = Tree_decomposition.of_elimination_order g order in
    (Tree_decomposition.width td, td)

(* ------------------------------------------------------------------ *)
(* Exact treewidth: branch and bound over elimination orders            *)
(* ------------------------------------------------------------------ *)

exception Too_large

(** [exact g] computes the exact treewidth of [g]. Raises [Too_large] when
    [g] has more than 62 vertices (use {!upper_bound}/{!lower_bound} then).
    Each connected component is solved independently. *)
let exact g =
  let solve_component g =
    let c = compact_of_graph g in
    if c.n > 62 then raise Too_large;
    let full = (1 lsl c.n) - 1 in
    let ub = ref (fst (upper_bound g)) in
    let lb = lower_bound g in
    (* memo: eliminated-set -> best width achievable for the remainder,
       given it was explored with a bound; store (bound_used, result). *)
    let memo = Hashtbl.create 4096 in
    let rec best eliminated cutoff =
      (* minimal possible max-degree completion for remaining vertices,
         given [eliminated]; returns value ≥ cutoff to signal pruning. *)
      if eliminated = full then 0
      else
        match Hashtbl.find_opt memo eliminated with
        | Some (c0, r) when r < c0 || c0 >= cutoff -> r
        | _ ->
            let rest = full land lnot eliminated in
            let result = ref max_int in
            let m = ref rest in
            while !m <> 0 && !result > lb do
              let bit = !m land - !m in
              m := !m land lnot bit;
              let v = popcount (bit - 1) in
              let d = popcount (fill_neighbors c eliminated v) in
              if d < cutoff && d < !result then begin
                let sub = best (eliminated lor bit) (min cutoff !result) in
                let w = max d sub in
                if w < !result then result := w
              end
            done;
            Hashtbl.replace memo eliminated (cutoff, !result);
            !result
    in
    if c.n = 0 then 0
    else if lb >= !ub then !ub
    else begin
      let r = best 0 (!ub + 1) in
      min r !ub
    end
  in
  match Graph.components g with
  | [] -> 0
  | comps ->
      List.fold_left
        (fun acc vs -> max acc (solve_component (Graph.induced g vs)))
        0 comps

(** Exact treewidth with a witnessing decomposition: runs {!exact} to find
    the width [k], then searches an elimination order of width [k] greedily
    validated by the exact bound. For simplicity we recompute via iterative
    deepening on heuristic orders; falls back to the heuristic witness. *)
let exact_decomposition g =
  let k = exact g in
  let _, td_fill = upper_bound ~h:Min_fill g in
  let _, td_deg = upper_bound ~h:Min_degree g in
  let td =
    if Tree_decomposition.width td_fill <= Tree_decomposition.width td_deg then
      td_fill
    else td_deg
  in
  if Tree_decomposition.width td = k then (k, td)
  else begin
    (* brute-force a width-k order: branch and bound constructing the order *)
    let c = compact_of_graph g in
    if c.n > 62 then (k, td)
    else
      let full = (1 lsl c.n) - 1 in
      let rec build eliminated acc =
        if eliminated = full then Some (List.rev acc)
        else
          let rec try_v m =
            if m = 0 then None
            else
              let bit = m land -m in
              let v = popcount (bit - 1) in
              let d = popcount (fill_neighbors c eliminated v) in
              if d <= k then
                match build (eliminated lor bit) (c.back.(v) :: acc) with
                | Some o -> Some o
                | None -> try_v (m land lnot bit)
              else try_v (m land lnot bit)
          in
          try_v (full land lnot eliminated)
      in
      match build 0 [] with
      | Some order -> (k, Tree_decomposition.of_elimination_order g order)
      | None -> (k, td)
  end

(** Total variants: [None] instead of {!Too_large}, so callers can fall
    back to {!upper_bound} without an exception handler at every site. *)
let exact_opt g = try Some (exact g) with Too_large -> None

let exact_decomposition_opt g =
  try Some (exact_decomposition g) with Too_large -> None

(** Treewidth of [g] with the paper's convention handled by callers; this is
    the mathematical treewidth (0 for edgeless graphs). Uses exact search
    when feasible, otherwise brackets with heuristics (returns the upper
    bound and logs the gap). *)
let treewidth g =
  try exact g
  with Too_large ->
    let lb = lower_bound g and ub, _ = upper_bound g in
    if lb <> ub then
      Logs.warn (fun m ->
          m "treewidth: graph too large for exact search; reporting upper \
             bound %d (lower bound %d)" ub lb);
    ub

(** [at_most g k] decides whether treewidth(g) ≤ k. *)
let at_most g k = treewidth g <= k
