(** Homomorphism search.

    The workhorse of the whole library: backtracking search for a mapping of
    the variables of an atom list into the constants of an instance such
    that every atom becomes a fact. Supports an initial partial binding, an
    injectivity constraint (for the [|=io] judgements of Appendix D), and
    full enumeration. Atom order is chosen dynamically, most-constrained
    first. *)

open Term

type binding = const VarMap.t

let apply_binding (b : binding) (a : Atom.t) =
  Atom.apply (VarMap.map (fun c -> Const c) b) a

(* Match one atom against one tuple, extending [b]. Repeated variables and
   constants are checked positionally. *)
let match_atom ~injective (b : binding) (a : Atom.t) (tuple : const list) :
    binding option =
  let range b = VarMap.fold (fun _ c acc -> ConstSet.add c acc) b ConstSet.empty in
  let rec go b used args tuple =
    match (args, tuple) with
    | [], [] -> Some b
    | Const c :: args', d :: tuple' ->
        if equal_const c d then go b used args' tuple' else None
    | Var x :: args', d :: tuple' -> (
        match VarMap.find_opt x b with
        | Some c -> if equal_const c d then go b used args' tuple' else None
        | None ->
            if injective && ConstSet.mem d used then None
            else go (VarMap.add x d b) (ConstSet.add d used) args' tuple')
    | _ -> None
  in
  if List.length (Atom.args a) <> List.length tuple then None
  else go b (if injective then range b else ConstSet.empty) (Atom.args a) tuple

(* Number of unbound variables of [a] under [b]; used for atom selection. *)
let unbound_count (b : binding) a =
  VarSet.fold
    (fun x acc -> if VarMap.mem x b then acc else acc + 1)
    (Atom.vars a) 0

(* Matches of [a] under [b], counted with an early exit: [None] as soon as
   the count would exceed [limit] (the atom then cannot be selected), else
   [Some (count, tuples)] with the matching tuples in relation order — the
   selected atom's candidates are reused directly instead of rescanning
   [Instance.tuples] after selection. Matching is scored without the
   injectivity constraint (a superset), exactly as the previous
   candidate-list scoring did; the search re-checks each tuple under the
   caller's [~injective] when expanding. *)
let matches_upto inst ~limit (b : binding) a =
  let rec go n acc = function
    | [] -> Some (n, List.rev acc)
    | t :: rest -> (
        match match_atom ~injective:false b a t with
        | Some _ -> if n >= limit then None else go (n + 1) (t :: acc) rest
        | None -> go n acc rest)
  in
  go 0 [] (Instance.tuples (Atom.pred a) inst)

(** [fold_homs ?injective ?init ?ordering atoms inst f acc] folds [f] over
    every homomorphism from [atoms] to [inst] extending [init].
    Injectivity, when requested, constrains the full variable-to-constant
    map. [ordering] selects the atom-selection strategy: [`Dynamic]
    (default) picks the most constrained atom at every step; [`Static]
    processes atoms in the given order (exposed for the ablation
    benchmarks). *)
let fold_homs ?(injective = false) ?(init = VarMap.empty)
    ?(ordering = `Dynamic) atoms inst f acc =
  let rec search b pending acc =
    match pending with
    | [] -> f b acc
    | first_atom :: static_rest ->
        (* choose the most constrained atom: fewest candidate tuples,
           tie-broken by fewer unbound variables. Counting stops early the
           moment an atom exceeds the best count seen so far, and the
           winner's matches are kept so expansion never rescans the
           relation. *)
        let idx, a, cands =
          match ordering with
          | `Static ->
              (0, first_atom, Instance.tuples (Atom.pred first_atom) inst)
          | `Dynamic ->
              let best =
                List.fold_left
                  (fun best (i, a) ->
                    let u = unbound_count b a in
                    match best with
                    | None -> (
                        match matches_upto inst ~limit:max_int b a with
                        | Some (c, ms) -> Some (i, a, u, c, ms)
                        | None -> assert false)
                    | Some (_, _, bu, bc, _) -> (
                        match matches_upto inst ~limit:bc b a with
                        | Some (c, ms) when c < bc || (c = bc && u < bu) ->
                            Some (i, a, u, c, ms)
                        | _ -> best))
                  None
                  (List.mapi (fun i a -> (i, a)) pending)
              in
              let i, a, _, _, ms =
                match best with Some b -> b | None -> assert false
              in
              (i, a, ms)
        in
        let rest =
          if idx = 0 then static_rest
          else List.filteri (fun i _ -> i <> idx) pending
        in
        List.fold_left
          (fun acc tuple ->
            match match_atom ~injective b a tuple with
            | Some b' -> search b' rest acc
            | None -> acc)
          acc cands
  in
  search init atoms acc

exception Found of binding

(** First homomorphism, if any. *)
let find ?injective ?init atoms inst =
  try
    fold_homs ?injective ?init atoms inst (fun b _ -> raise (Found b)) ();
    None
  with Found b -> Some b

let exists ?injective ?init atoms inst =
  Option.is_some (find ?injective ?init atoms inst)

(** All homomorphisms (exponentially many in general — small inputs only). *)
let all ?injective ?init atoms inst =
  List.rev (fold_homs ?injective ?init atoms inst (fun b acc -> b :: acc) [])

(* ------------------------------------------------------------------ *)
(* Homomorphisms between instances                                      *)
(* ------------------------------------------------------------------ *)

(* Encode source constants as variables "#<n>". The numbering is local to
   each call: [ConstSet.elements] is sorted, so position [i] gets "#i+1"
   deterministically, and no state survives the call — a long-running
   process issuing many [maps_to] checks holds no growing const→var table,
   and concurrent callers (e.g. query-server workers) share nothing. *)
let pattern_of_instance src =
  let consts = ConstSet.elements (Instance.dom src) in
  let tbl = List.mapi (fun i c -> (c, Printf.sprintf "#%d" (i + 1))) consts in
  let atoms =
    List.map
      (fun f ->
        Atom.make (Fact.pred f)
          (List.map (fun c -> Var (List.assoc c tbl)) (Fact.args f)))
      (Instance.facts src)
  in
  (atoms, tbl)

let binding_to_const_map tbl (b : binding) =
  List.fold_left
    (fun acc (c, v) ->
      match VarMap.find_opt v b with
      | Some d -> ConstMap.add c d acc
      | None -> acc)
    ConstMap.empty tbl

(** [find_between ?injective ?fixed src dst] searches a homomorphism
    [h : dom(src) → dom(dst)] with [R(h(t̄)) ∈ dst] for every
    [R(t̄) ∈ src]; [fixed] pre-assigns some constants (e.g. the identity on
    a distinguished tuple, as in Proposition 2.2). *)
let find_between ?(injective = false) ?(fixed = ConstMap.empty) src dst =
  let atoms, tbl = pattern_of_instance src in
  let init =
    List.fold_left
      (fun acc (c, v) ->
        match ConstMap.find_opt c fixed with
        | Some d -> VarMap.add v d acc
        | None -> acc)
      VarMap.empty tbl
  in
  find ~injective ~init atoms dst
  |> Option.map (fun b ->
         (* constants of src absent from the pattern (none: every constant
            of an instance occurs in a fact) *)
         binding_to_const_map tbl b)

(** [maps_to src dst] — [src → dst] in the paper's notation. *)
let maps_to ?injective ?fixed src dst =
  Option.is_some (find_between ?injective ?fixed src dst)

(** [verify_between src dst h] — checks that [h] is a homomorphism from
    [src] to [dst] (total on [dom src]). *)
let verify_between src dst (h : const ConstMap.t) =
  ConstSet.for_all (fun c -> ConstMap.mem c h) (Instance.dom src)
  && Instance.for_all
       (fun f -> Instance.mem (Fact.rename (fun c -> ConstMap.find_opt c h) f) dst)
       src
