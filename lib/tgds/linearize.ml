(** Linearization of guarded TGD sets (Lemma A.3, Appendix A.1).

    From a guarded set Σ and a database D, builds a database [D*] and a
    *linear* set [Σ* = Σ*_tg ∪ Σ*_ex] such that
    [Q(D) = q(chase(D_star, Σ_star))] for [Q = (S,Σ,q)]. Facts of [D*] have the form
    [⟨τ⟩(c̄)] where the predicate encodes a Σ-type τ — the shape of a guard
    atom together with the side atoms over its constants — and [Σ*]
    consists of the *type generator* (deriving new type facts from old
    ones, simulating guarded chase steps) and the *expander* (recovering
    the guard atom of each type).

    Deviation from the paper, documented in DESIGN.md §5: instead of
    enumerating all (exponentially many) Σ-types up front, types and their
    rules are materialized on demand, starting from the types of [D*] and
    closing under the type generator. The resulting [Σ*] is exactly the
    reachable fragment of the paper's [Σ*], which chases identically from
    [D*]. *)

open Relational
open Relational.Term

(* Canonical constants of type representations. *)
let ci i = Named (Printf.sprintf "\002%d" i)

type ty = {
  guard : Fact.t;  (** guard atom over canonical constants [ci 1], [ci 2], … *)
  side : Fact.t list;  (** side atoms over the guard's constants, sorted *)
}

(** [atoms_of ty] — [atoms(τ)] as an instance. *)
let atoms_of ty = Instance.of_facts (ty.guard :: ty.side)

(** Encoded predicate name of [⟨τ⟩]. *)
let pred_name ty =
  let s f = Fmt.str "%a" Fact.pp f in
  Fmt.str "⟨%s|%s⟩" (s ty.guard) (String.concat ";" (List.map s ty.side))

(* First-occurrence canonical renaming of a constant tuple: returns the
   assoc list const -> ci i (i starting at 1). *)
let first_occurrence_renaming consts =
  let rec go i seen = function
    | [] -> List.rev seen
    | c :: rest ->
        if List.mem_assoc c seen then go i seen rest
        else go (i + 1) ((c, ci i) :: seen) rest
  in
  go 1 [] consts

(* Build the type of an atom [fact] in the completed instance [complete]:
   guard = the atom itself normalized, side = all atoms of [complete] over
   the atom's constants, normalized the same way. *)
let type_of_fact complete fact =
  let ren = first_occurrence_renaming (Fact.args fact) in
  let rename f = Fact.rename (fun c -> List.assoc_opt c ren) f in
  let guard = rename fact in
  let side =
    Instance.restrict complete (Fact.consts fact)
    |> Instance.facts
    |> List.map rename
    |> List.filter (fun f -> not (Fact.equal f guard))
    |> List.sort_uniq Fact.compare
  in
  { guard; side }

(** [d_star sigma db] — the database [D*]: every fact of [db] typed with
    its (maximal) Σ-type in [complete(D,Σ)]. Returns the typed database
    together with the list of types present (the seeds of the reachable
    closure). *)
let d_star sigma db =
  let complete = Ground_closure.compute sigma db in
  let types = Hashtbl.create 32 in
  let typed =
    Instance.fold
      (fun fact acc ->
        let ty = type_of_fact complete fact in
        Hashtbl.replace types (pred_name ty) ty;
        Instance.add_fact (Fact.make (pred_name ty) (Fact.args fact)) acc)
      db Instance.empty
  in
  (typed, Hashtbl.fold (fun _ ty acc -> ty :: acc) types [])

(* Homomorphisms h from body(σ) into atoms(τ) with h(guard σ) = guard τ. *)
let guard_matches sigma_tgd ty =
  match Tgd.guard sigma_tgd with
  | None ->
      (* empty body: a single trivial match *)
      if Tgd.body sigma_tgd = [] then [ VarMap.empty ] else []
  | Some g ->
      if Atom.pred g <> Fact.pred ty.guard then []
      else
        let rec unify b args consts =
          match (args, consts) with
          | [], [] -> Some b
          | Var x :: args', c :: consts' -> (
              match VarMap.find_opt x b with
              | Some d -> if equal_const c d then unify b args' consts' else None
              | None -> unify (VarMap.add x c b) args' consts')
          | Const c :: args', d :: consts' ->
              if equal_const c d then unify b args' consts' else None
          | _ -> None
        in
        (match unify VarMap.empty (Atom.args g) (Fact.args ty.guard) with
        | None -> []
        | Some init ->
            let rest = List.filter (fun a -> not (Atom.equal a g)) (Tgd.body sigma_tgd) in
            Homomorphism.all ~init rest (atoms_of ty))

(* Given τ, σ and a matching hom h, produce the linear rule
   ⟨τ⟩(ū) → ∃z̄ ⟨τ1⟩(ū1), …, ⟨τn⟩(ūn) and the child types. *)
let generate_rule sigma ty sigma_tgd (h : Homomorphism.binding) =
  let frontier = Tgd.frontier sigma_tgd in
  let ex = VarSet.elements (Tgd.existential_vars sigma_tgd) in
  let f_var x =
    if VarSet.mem x frontier then
      match VarMap.find_opt x h with
      | Some c -> c
      | None -> invalid_arg "Linearize: frontier variable unbound"
    else
      (* existential: a fresh canonical constant beyond the type width *)
      let j = Option.get (List.find_index (String.equal x) ex) in
      ci (1000 + j)
  in
  let head_facts =
    List.map
      (fun a ->
        Fact.make (Atom.pred a)
          (List.map
             (function Var x -> f_var x | Const c -> c)
             (Atom.args a)))
      (Tgd.head sigma_tgd)
  in
  let frontier_consts =
    VarSet.fold
      (fun x acc ->
        match VarMap.find_opt x h with Some c -> ConstSet.add c acc | None -> acc)
      frontier ConstSet.empty
  in
  let i_inst =
    Instance.union
      (Instance.of_facts head_facts)
      (Instance.restrict (atoms_of ty) frontier_consts)
  in
  let complete_i = Ground_closure.saturate_small sigma i_inst in
  let child_types = List.map (type_of_fact complete_i) head_facts in
  let body_atom =
    match Tgd.guard sigma_tgd with
    | Some g -> Atom.make (pred_name ty) (Atom.args g)
    | None -> Atom.make (pred_name ty) []
  in
  let head_atoms =
    List.map2
      (fun a child -> Atom.make (pred_name child) (Atom.args a))
      (Tgd.head sigma_tgd) child_types
  in
  (Tgd.make ~body:[ body_atom ] ~head:head_atoms, child_types)

(** Expander rule for a type: [⟨τ⟩(x1,…,xk) → R(x1,…,xk)]. *)
let expander_rule ty =
  let k = Fact.arity ty.guard in
  let xs = List.init k (fun i -> Var (Printf.sprintf "x%d" (i + 1))) in
  Tgd.make
    ~body:[ Atom.make (pred_name ty) xs ]
    ~head:[ Atom.make (Fact.pred ty.guard) xs ]

type t = {
  db_star : Instance.t;  (** the typed database [D*] *)
  sigma_star : Tgd.t list;  (** the linear set [Σ*] (generator + expander) *)
  types : ty list;  (** all reachable types *)
  complete : bool;  (** false iff the type budget was exhausted *)
}

(* The cap on the type exploration of {!make}. *)
let max_types = 4000

(** [make sigma db] — run the construction of Lemma A.3: compute [D*]
    and the reachable fragment of [Σ*]. [max_types] caps the type
    exploration; [complete = false] signals the cap was hit, in which
    case [chase(D_star, Σ_star)] is still sound but may be missing
    answers. Requires Σ guarded. *)
let make sigma db =
  if not (Tgd.all_guarded sigma) then
    invalid_arg "Linearize.make: Σ must be guarded";
  let db_star, seeds = d_star sigma db in
  let seen : (string, ty) Hashtbl.t = Hashtbl.create 64 in
  let rules : (string, Tgd.t) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let complete = ref true in
  let visit ty =
    let name = pred_name ty in
    if not (Hashtbl.mem seen name) then
      if Hashtbl.length seen >= max_types then complete := false
      else begin
        Hashtbl.replace seen name ty;
        Queue.add ty queue
      end
  in
  List.iter visit seeds;
  while not (Queue.is_empty queue) do
    let ty = Queue.pop queue in
    let exp = expander_rule ty in
    Hashtbl.replace rules (Fmt.str "%a" Tgd.pp exp) exp;
    List.iter
      (fun sigma_tgd ->
        List.iter
          (fun h ->
            let rule, children = generate_rule sigma ty sigma_tgd h in
            Hashtbl.replace rules (Fmt.str "%a" Tgd.pp rule) rule;
            List.iter visit children)
          (guard_matches sigma_tgd ty))
      sigma
  done;
  {
    db_star;
    sigma_star = Hashtbl.fold (fun _ r acc -> r :: acc) rules [];
    types = Hashtbl.fold (fun _ t acc -> t :: acc) seen [];
    complete = !complete;
  }

(** [certain ?max_level lin q tuple] — evaluate a UCQ over
    [chase(D_star, Σ_star)], level-bounded per Lemma A.1 (the required level is a
    computable function of ‖Σ‖+‖q‖; the default bound is configurable and
    the saturation flag of the run tells whether the check was
    exhaustive). *)
let certain ?(max_level = 8) ?max_facts lin (q : Ucq.t) tuple =
  let r = Chase.run ~max_level ?max_facts lin.sigma_star lin.db_star in
  ( Engine.Joiner.entails_ucq (Chase.index r) q tuple,
    Chase.saturated r && lin.complete )
