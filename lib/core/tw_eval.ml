(** Bounded-treewidth CQ evaluation (Proposition 2.1).

    Given a database [D], an n-ary [q ∈ CQ_k] and a candidate answer [c̄],
    decides [c̄ ∈ q(D)] in time [O(||D||^{k+1} · ||q||)]: the answer
    variables are pre-bound to [c̄] (the evaluation problem of §2 receives
    the candidate tuple), a width-k tree decomposition of the remaining
    (existential) variables is computed, each bag is materialized as a
    relation of at most [|dom|^{k+1}] tuples, and a bottom-up semijoin
    sweep (Yannakakis) decides satisfiability. *)

open Relational
open Relational.Term
module ISet = Qgraph.Graph.ISet
module IMap = Qgraph.Graph.IMap
module Tree_decomposition = Qgraph.Tree_decomposition

(* Decompositions fall back to the heuristic witness when the Gaifman
   graph is too large for exact search; the registry records how often. *)
let metrics = Obs.Metrics.create ()
let c_exact_fallbacks = Obs.Metrics.counter metrics "tw_eval.exact_fallbacks"

(* Assign every atom to a bag containing all its variables (exists because
   an atom's variables form a clique of the Gaifman graph, and every clique
   is contained in some bag). *)
let assign_atoms td var_index atoms =
  let bag_of_atom a =
    let vs = Atom.vars a in
    let ids =
      VarSet.fold (fun x acc -> ISet.add (Hashtbl.find var_index x) acc) vs ISet.empty
    in
    IMap.fold
      (fun node bag acc ->
        match acc with
        | Some _ -> acc
        | None -> if ISet.subset ids bag then Some node else None)
      (Tree_decomposition.bags td) None
  in
  List.map
    (fun a ->
      match bag_of_atom a with
      | Some node -> (a, node)
      | None -> invalid_arg "Tw_eval: atom not covered by any bag")
    atoms

(* Do two bindings agree on their common variables? *)
let agree b1 b2 =
  VarMap.for_all
    (fun x c ->
      match VarMap.find_opt x b2 with Some d -> equal_const c d | None -> true)
    b1

(* Natural join of two binding lists (hash-grouped on the shared
   variables). *)
let join r1 r2 =
  match (r1, r2) with
  | [], _ | _, [] -> []
  | b1 :: _, b2 :: _ ->
      let shared =
        VarMap.fold
          (fun x _ acc -> if VarMap.mem x b2 then x :: acc else acc)
          b1 []
      in
      let key b = List.map (fun x -> VarMap.find_opt x b) shared in
      let index = Hashtbl.create (List.length r2) in
      List.iter (fun b -> Hashtbl.add index (key b) b) r2;
      List.concat_map
        (fun b1 ->
          Hashtbl.find_all index (key b1)
          |> List.filter_map (fun b2 ->
                 if agree b1 b2 then
                   Some (VarMap.union (fun _ a _ -> Some a) b1 b2)
                 else None))
        r1

(* Project a binding list onto a variable set, deduplicated. *)
let project vars r =
  List.map (fun b -> VarMap.filter (fun x _ -> VarSet.mem x vars) b) r
  |> List.sort_uniq (VarMap.compare compare_const)

(** [entails db q c̄] — [c̄ ∈ q(D)] by dynamic programming over a tree
    decomposition of the existential variables of [q]. Works for any CQ;
    the cost is exponential only in the width of the decomposition
    found. *)
let entails db (q : Cq.t) tuple =
  if List.length tuple <> Cq.arity q then false
  else
    (* bind the answer variables *)
    let subst =
      List.fold_left2
        (fun acc x c -> VarMap.add x (Const c) acc)
        VarMap.empty (Cq.answer q) tuple
    in
    let atoms = List.map (Atom.apply subst) (Cq.atoms q) in
    let ground, open_atoms =
      List.partition (fun a -> VarSet.is_empty (Atom.vars a)) atoms
    in
    if not (List.for_all (fun a -> Instance.mem (Fact.of_atom a) db) ground) then
      false
    else if open_atoms = [] then true
    else begin
      (* Gaifman graph of the remaining variables *)
      let vars =
        List.fold_left
          (fun acc a -> VarSet.union (Atom.vars a) acc)
          VarSet.empty open_atoms
      in
      let var_list = VarSet.elements vars in
      let var_index = Hashtbl.create 16 in
      List.iteri (fun i x -> Hashtbl.replace var_index x i) var_list;
      let name = Array.of_list var_list in
      let g = ref Qgraph.Graph.empty in
      List.iteri (fun i _ -> g := Qgraph.Graph.add_vertex !g i) var_list;
      List.iter
        (fun a ->
          let ids = VarSet.elements (Atom.vars a) |> List.map (Hashtbl.find var_index) in
          let rec pairs = function
            | [] -> ()
            | x :: rest ->
                List.iter (fun y -> g := Qgraph.Graph.add_edge !g x y) rest;
                pairs rest
          in
          pairs ids)
        open_atoms;
      let td =
        match Qgraph.Treewidth.exact_decomposition_opt !g with
        | Some (_, td) -> td
        | None ->
            (* > 62 existential variables: exact search is infeasible — use
               the heuristic witness (sound; only the width bound degrades)
               rather than propagating Too_large to query evaluation. *)
            Obs.Metrics.incr c_exact_fallbacks;
            snd (Qgraph.Treewidth.upper_bound !g)
      in
      let assignment = assign_atoms td var_index open_atoms in
      let bag_vars node =
        ISet.fold
          (fun i acc -> VarSet.add name.(i) acc)
          (IMap.find node (Tree_decomposition.bags td))
          VarSet.empty
      in
      (* bottom-up join with projection to separators (Yannakakis) *)
      let sk = Tree_decomposition.skeleton td in
      let visited = Hashtbl.create 16 in
      let rec solve node =
        Hashtbl.replace visited node ();
        let children =
          ISet.elements (Qgraph.Graph.neighbors sk node)
          |> List.filter (fun n -> not (Hashtbl.mem visited n))
        in
        let base =
          Homomorphism.all
            (List.filter_map
               (fun (a, n) -> if n = node then Some a else None)
               assignment)
            db
        in
        List.fold_left
          (fun rel child ->
            match solve child with
            | [] -> []
            | child_rel ->
                let sep = VarSet.inter (bag_vars node) (bag_vars child) in
                join rel (project sep child_rel))
          base children
      in
      match IMap.min_binding_opt (Tree_decomposition.bags td) with
      | None -> true
      | Some (root, _) -> solve root <> []
    end

(** [holds db q] — Boolean variant. *)
let holds db q = entails db q []

(** [answers db q] — enumerate [q(D)] by checking every candidate tuple
    (cost [|dom|^arity] candidate checks; meant for small arities). *)
let answers db q =
  let dom = ConstSet.elements (Instance.dom db) in
  let rec tuples n =
    if n = 0 then [ [] ]
    else List.concat_map (fun t -> List.map (fun c -> c :: t) dom) (tuples (n - 1))
  in
  List.filter (entails db q) (tuples (Cq.arity q))
