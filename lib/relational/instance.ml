(** Finite instances and databases (§2): sets of facts with a per-predicate
    index, an active domain, and the operations the paper uses —
    restriction [I|T], union, renaming, Gaifman graphs, guarded sets and
    isolated constants. *)

open Term
module SMap = Map.Make (String)

module TupleSet = Set.Make (struct
  type t = const list

  let compare = Stdlib.compare
end)

type t = { rels : TupleSet.t SMap.t }

let empty = { rels = SMap.empty }

let add_fact (f : Fact.t) i =
  let tuples =
    match SMap.find_opt (Fact.pred f) i.rels with
    | Some s -> s
    | None -> TupleSet.empty
  in
  { rels = SMap.add (Fact.pred f) (TupleSet.add (Fact.args f) tuples) i.rels }

let of_facts fs = List.fold_left (fun i f -> add_fact f i) empty fs
let of_atoms atoms = of_facts (List.map Fact.of_atom atoms)

let mem (f : Fact.t) i =
  match SMap.find_opt (Fact.pred f) i.rels with
  | Some s -> TupleSet.mem (Fact.args f) s
  | None -> false

let facts i =
  SMap.fold
    (fun p tuples acc ->
      TupleSet.fold (fun args acc -> Fact.make p args :: acc) tuples acc)
    i.rels []
  |> List.rev

let fold f i acc =
  SMap.fold
    (fun p tuples acc ->
      TupleSet.fold (fun args acc -> f (Fact.make p args) acc) tuples acc)
    i.rels acc

let iter f i = fold (fun fact () -> f fact) i ()
let for_all p i = fold (fun fact acc -> acc && p fact) i true
let exists p i = fold (fun fact acc -> acc || p fact) i false

(** Tuples of predicate [p]. *)
let tuples p i =
  match SMap.find_opt p i.rels with
  | Some s -> TupleSet.elements s
  | None -> []

let predicates i = SMap.bindings i.rels |> List.map fst

(** Number of facts. *)
let size i = SMap.fold (fun _ s acc -> acc + TupleSet.cardinal s) i.rels 0

(** [||I||]: total symbol count (facts weighted by arity + 1). *)
let norm i =
  fold (fun f acc -> acc + 1 + Fact.arity f) i 0

let is_empty i = SMap.for_all (fun _ s -> TupleSet.is_empty s) i.rels

(** Active domain. *)
let dom i =
  fold (fun f acc -> ConstSet.union (Fact.consts f) acc) i ConstSet.empty

let union a b = fold (fun f acc -> add_fact f acc) b a

(** [restrict i set] is [I|T]: the atoms mentioning only constants of
    [set]. *)
let restrict i set = of_facts (List.filter (Fact.within set) (facts i))

let filter p i = of_facts (List.filter p (facts i))

(** [diff a b] removes [b]'s facts from [a]. *)
let diff a b = filter (fun f -> not (mem f b)) a

let subset a b = for_all (fun f -> mem f b) a
let equal a b = subset a b && subset b a

(** [rename f i] maps all constants through [f] (identity on [None]). *)
let rename f i = of_facts (List.map (Fact.rename f) (facts i))

(** [rename_map m i] renames via a constant map (identity off the map). *)
let rename_map m i = rename (fun c -> ConstMap.find_opt c m) i

(** Schema inferred from the facts present. *)
let schema i =
  SMap.fold
    (fun p tuples acc ->
      match TupleSet.choose_opt tuples with
      | Some args -> Schema.add p (List.length args) acc
      | None -> acc)
    i.rels Schema.empty

(* ------------------------------------------------------------------ *)
(* Gaifman graph                                                        *)
(* ------------------------------------------------------------------ *)

(** [gaifman i] is the Gaifman graph of [i] (§2): vertices are indices into
    the returned constant array; two constants are adjacent iff they
    cohabit some atom. Returns [(graph, consts)] with [consts.(v)] the
    constant of vertex [v]. *)
let gaifman i =
  let cs = ConstSet.elements (dom i) in
  let arr = Array.of_list cs in
  let index = Hashtbl.create 16 in
  Array.iteri (fun idx c -> Hashtbl.replace index c idx) arr;
  let g = ref Qgraph.Graph.empty in
  Array.iteri (fun idx _ -> g := Qgraph.Graph.add_vertex !g idx) arr;
  iter
    (fun f ->
      let ids =
        List.sort_uniq Stdlib.compare
          (List.map (fun c -> Hashtbl.find index c) (Fact.args f))
      in
      let rec pairs = function
        | [] -> ()
        | x :: rest ->
            List.iter (fun y -> g := Qgraph.Graph.add_edge !g x y) rest;
            pairs rest
      in
      pairs ids)
    i;
  (!g, arr)

(** Treewidth of the instance = treewidth of its Gaifman graph. *)
let treewidth i =
  let g, _ = gaifman i in
  Qgraph.Treewidth.treewidth g

(** [connected i] — whether the Gaifman graph is connected (§6). *)
let connected i =
  let g, _ = gaifman i in
  Qgraph.Graph.is_connected g

(* ------------------------------------------------------------------ *)
(* Guarded sets, isolated constants                                     *)
(* ------------------------------------------------------------------ *)

(** [isolated i c] — [c] occurs in exactly one atom of [i] (§6). *)
let isolated i c =
  let count =
    fold (fun f acc -> if ConstSet.mem c (Fact.consts f) then acc + 1 else acc) i 0
  in
  count = 1

(** [guarded_sets i] — the constant sets of atoms of [i] (every subset of
    such a set is guarded in [i]). *)
let guarded_sets i =
  fold (fun f acc -> Fact.consts f :: acc) i [] |> List.sort_uniq ConstSet.compare

(** [maximal_guarded_sets i] — guarded sets not strictly contained in
    another guarded set (the family [A] of §6.2). *)
let maximal_guarded_sets i =
  let all = guarded_sets i in
  List.filter
    (fun s ->
      not
        (List.exists
           (fun s' -> (not (ConstSet.equal s s')) && ConstSet.subset s s')
           all))
    all

let pp ppf i =
  Fmt.pf ppf "@[<v>{%a}@]" Fmt.(list ~sep:(any ", ") Fact.pp) (facts i)
