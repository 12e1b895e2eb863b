(** Relational atoms [R(t1,...,tn)] over terms, and ground facts. *)

open Term

type t = { pred : string; args : Term.t list }

let make pred args = { pred; args }
let pred a = a.pred
let args a = a.args
let arity a = List.length a.args
let compare (a : t) (b : t) = Stdlib.compare a b
let equal a b = compare a b = 0

(** Variables occurring in the atom, left to right (duplicates removed). *)
let vars a =
  List.fold_left
    (fun acc t -> match t with Var x -> VarSet.add x acc | Const _ -> acc)
    VarSet.empty a.args

let consts a =
  List.fold_left
    (fun acc t -> match t with Const c -> ConstSet.add c acc | Var _ -> acc)
    ConstSet.empty a.args

let is_ground a = List.for_all (function Const _ -> true | Var _ -> false) a.args

(** [apply subst a] substitutes variables by terms; unmapped variables are
    left in place. *)
let apply (subst : Term.t VarMap.t) a =
  let args =
    List.map
      (fun t ->
        match t with
        | Var x -> ( match VarMap.find_opt x subst with Some u -> u | None -> t)
        | Const _ -> t)
      a.args
  in
  { a with args }

(** [rename_consts f a] maps every constant through [f] (identity when [f]
    returns [None]). *)
let rename_consts f a =
  let args =
    List.map
      (fun t ->
        match t with
        | Const c -> ( match f c with Some c' -> Const c' | None -> t)
        | Var _ -> t)
      a.args
  in
  { a with args }

let pp ppf a =
  if a.args = [] then Fmt.string ppf a.pred
  else Fmt.pf ppf "%s(%a)" a.pred Fmt.(list ~sep:(any ",") Term.pp) a.args
