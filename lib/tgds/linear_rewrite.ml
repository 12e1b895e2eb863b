(** UCQ rewriting for linear TGDs (Proposition D.2).

    Backward-chaining piece rewriting: a set [S] of query atoms is unified
    with head atoms of a (renamed-apart) linear TGD; if every existential
    variable of the head unifies only with variables that occur nowhere
    outside [S] (and with no constant, frontier variable, other existential
    or answer variable), the piece is replaced by the TGD body. Iterated to
    a fixpoint modulo CQ equivalence, this yields a UCQ [q'] with
    [q(chase(D,Σ)) = q'(D)] for every database [D]. Termination holds for
    linear TGDs up to equivalence; a budget caps pathological blowups and
    is reported in the [complete] flag. *)

open Relational
open Relational.Term

(* ------------------------------------------------------------------ *)
(* Term unification (union-find over terms)                             *)
(* ------------------------------------------------------------------ *)

module TMap = Map.Make (struct
  type t = Term.t

  let compare = Term.compare
end)

type uf = Term.t TMap.t

let rec find (uf : uf) t =
  match TMap.find_opt t uf with
  | None -> t
  | Some t' -> if Term.equal t t' then t else find uf t'

let union uf t1 t2 =
  let r1 = find uf t1 and r2 = find uf t2 in
  if Term.equal r1 r2 then Some uf
  else
    match (r1, r2) with
    | Const c1, Const c2 -> if equal_const c1 c2 then Some uf else None
    | Const _, Var _ -> Some (TMap.add r2 r1 uf)
    | Var _, Const _ -> Some (TMap.add r1 r2 uf)
    | Var _, Var _ -> Some (TMap.add r1 r2 uf)

let unify_atoms uf (a : Atom.t) (b : Atom.t) =
  if Atom.pred a <> Atom.pred b || Atom.arity a <> Atom.arity b then None
  else
    List.fold_left2
      (fun acc t1 t2 -> Option.bind acc (fun uf -> union uf t1 t2))
      (Some uf) (Atom.args a) (Atom.args b)

(* Class of a term: all terms with the same representative. *)
let class_of uf keys t =
  let r = find uf t in
  List.filter (fun t' -> Term.equal (find uf t') r) keys

(* ------------------------------------------------------------------ *)
(* One rewriting step                                                   *)
(* ------------------------------------------------------------------ *)

(* Nonempty subsets of a list (small lists only). *)
let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
      let s = subsets rest in
      s @ List.map (fun ys -> x :: ys) s

let nonempty_subsets l = List.filter (fun s -> s <> []) (subsets l)

(* All assignments of each element of [xs] to an element of [choices]. *)
let rec assignments xs choices =
  match xs with
  | [] -> [ [] ]
  | x :: rest ->
      List.concat_map
        (fun c -> List.map (fun a -> (x, c) :: a) (assignments rest choices))
        choices

(* Apply a unifier to a CQ, choosing representatives so that answer
   variables survive: representative preference Const > answer var >
   variable. Returns None when the unifier identifies two answer
   variables. *)
let resolve_unifier uf keys (answer : string list) =
  let reps = List.sort_uniq Term.compare (List.map (find uf) keys) in
  let choice = Hashtbl.create 8 in
  let ok = ref true in
  List.iter
    (fun r ->
      let cls = class_of uf keys r in
      let consts = List.filter (function Const _ -> true | Var _ -> false) cls in
      let ans =
        List.filter (function Var x -> List.mem x answer | Const _ -> false) cls
      in
      let rep =
        match (consts, ans) with
        | c :: _, [] -> Some c
        | c :: _, [ _ ] ->
            Some c (* answer var bound to constant: allowed in evaluation? the
                      paper's queries are constant-free; keep the constant *)
        | _, [ a ] -> Some a
        | [], [] -> Some r
        | _, _ :: _ :: _ ->
            ok := false;
            None
      in
      match rep with Some rep -> Hashtbl.replace choice r rep | None -> ())
    reps;
  if not !ok then None
  else
    Some
      (fun t ->
        let r = find uf t in
        match Hashtbl.find_opt choice r with Some rep -> rep | None -> r)

(* One application of TGD [t] to CQ [q]: all results of rewriting some
   piece of [q] with the head of [t]. *)
let step_counter = ref 0

let step (t : Tgd.t) (q : Cq.t) : Cq.t list =
  (* rename the TGD apart with a suffix fresh for this step: a fixed suffix
     would collide with variables introduced by earlier rewriting steps *)
  incr step_counter;
  let t = Tgd.rename_apart ~suffix:(Printf.sprintf "_r%d" !step_counter) t in
  let ex = Tgd.existential_vars t in
  let atoms = Cq.atoms q in
  let keys =
    let terms_of a = Atom.args a in
    List.sort_uniq Term.compare
      (List.concat_map terms_of (atoms @ Tgd.body t @ Tgd.head t))
  in
  nonempty_subsets atoms
  |> List.concat_map (fun piece ->
         assignments piece (Tgd.head t)
         |> List.filter_map (fun assignment ->
                (* unify every piece atom with its assigned head atom *)
                let uf =
                  List.fold_left
                    (fun acc (a, h) ->
                      Option.bind acc (fun uf -> unify_atoms uf a h))
                    (Some TMap.empty) assignment
                in
                match uf with
                | None -> None
                | Some uf ->
                    let outside =
                      List.filter
                        (fun a -> not (List.exists (Atom.equal a) piece))
                        atoms
                    in
                    let outside_vars =
                      List.fold_left
                        (fun acc a -> VarSet.union (Atom.vars a) acc)
                        VarSet.empty outside
                    in
                    (* applicability of the piece w.r.t. existentials *)
                    let ex_ok =
                      VarSet.for_all
                        (fun z ->
                          let cls = class_of uf keys (Var z) in
                          List.for_all
                            (fun t' ->
                              match t' with
                              | Const _ -> false
                              | Var x ->
                                  if x = z then true
                                  else if VarSet.mem x ex then false
                                  else if VarSet.mem x (Tgd.frontier t) then
                                    false
                                  else
                                    (* a query variable: must be local to
                                       the piece and non-answer *)
                                    (not (List.mem x (Cq.answer q)))
                                    && not (VarSet.mem x outside_vars))
                            cls)
                        ex
                    in
                    if not ex_ok then None
                    else
                      Option.bind (resolve_unifier uf keys (Cq.answer q))
                        (fun repr ->
                          let subst_atom a =
                            Atom.make (Atom.pred a) (List.map repr (Atom.args a))
                          in
                          let atoms' =
                            List.map subst_atom (outside @ Tgd.body t)
                          in
                          (* a rewriting that forces an answer variable to a
                             constant is dropped: the paper's queries are
                             constant-free and such pieces never arise *)
                          let answer' =
                            List.map
                              (fun x ->
                                match repr (Var x) with
                                | Var y -> Some y
                                | Const _ -> None)
                              (Cq.answer q)
                          in
                          if List.exists Option.is_none answer' then None
                          else
                            Some
                              (Cq.normalize
                                 (Cq.make
                                    ~answer:(List.filter_map Fun.id answer')
                                    atoms')))))

(* ------------------------------------------------------------------ *)
(* The rewriting loop                                                   *)
(* ------------------------------------------------------------------ *)

(* The query budget of {!rewrite}: the most disjuncts it keeps. *)
let max_queries = 512

(** [rewrite sigma q] — the perfect UCQ rewriting of [q] w.r.t. the
    linear set [sigma] (Proposition D.2): a UCQ [q'] with
    [q(chase(D,Σ)) = q'(D)] for all [D]. The boolean is false when the
    query budget was exhausted (result then sound but possibly
    incomplete). Raises [Invalid_argument] on non-linear TGDs. *)
let rewrite sigma (q : Ucq.t) : Ucq.t * bool =
  if not (Tgd.all_linear sigma) then
    invalid_arg "Linear_rewrite.rewrite: Σ must be linear";
  let complete = ref true in
  let known : Cq.t list ref = ref [] in
  let add q =
    if List.exists (fun q' -> Containment.cq_equivalent q q') !known then false
    else if List.length !known >= max_queries then begin
      complete := false;
      false
    end
    else begin
      known := q :: !known;
      true
    end
  in
  let queue = Queue.create () in
  List.iter
    (fun d ->
      let d = Cq.normalize d in
      if add d then Queue.add d queue)
    (Ucq.disjuncts q);
  while not (Queue.is_empty queue) do
    let cur = Queue.pop queue in
    List.iter
      (fun t ->
        List.iter (fun q' -> if add q' then Queue.add q' queue) (step t cur))
      sigma
  done;
  (Ucq.make (List.rev !known), !complete)

(** [entails sigma db q tuple] — rewriting-based certain membership. *)
let entails sigma db q tuple =
  let q', complete = rewrite sigma q in
  (Ucq.entails db q' tuple, complete)
