(** Tuple-generating dependencies (§2) and their syntactic classes.

    A TGD [∀x̄∀ȳ (φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄))] is stored as its body and head atom
    lists; the frontier and the existential variables are derived. The
    classes of the paper are recognized syntactically:
    [L ⊆ G ⊆ FG ⊆ TGD], [FULL], and [FG_m]. *)

open Relational
open Relational.Term

(* the engine's rule type, so a TGD list is the engine's rule list *)
type t = Engine.Saturate.rule = { body : Atom.t list; head : Atom.t list }

let make ~body ~head =
  if head = [] then invalid_arg "Tgd.make: a TGD head is non-empty";
  { body; head }

let body t = t.body
let head t = t.head
let compare (a : t) (b : t) = Stdlib.compare a b
let equal a b = compare a b = 0

let vars_of atoms =
  List.fold_left (fun acc a -> VarSet.union (Atom.vars a) acc) VarSet.empty atoms

let body_vars t = vars_of t.body
let head_vars t = vars_of t.head

(** The frontier [fr(σ)]: variables shared between body and head. *)
let frontier t = VarSet.inter (body_vars t) (head_vars t)

(** Existential variables: head variables not in the body. *)
let existential_vars t = VarSet.diff (head_vars t) (body_vars t)

(** Number of head atoms (the [m] of [FG_m]). *)
let head_size t = List.length t.head

(** Schema of all predicates occurring in the TGD. *)
let schema t =
  List.fold_left
    (fun s a -> Schema.add (Atom.pred a) (Atom.arity a) s)
    Schema.empty (t.body @ t.head)

let schema_of_set sigma =
  List.fold_left (fun s t -> Schema.union s (schema t)) Schema.empty sigma

(* ------------------------------------------------------------------ *)
(* Classes                                                              *)
(* ------------------------------------------------------------------ *)

(** [guard t] — an atom of the body containing all body variables, if any
    (§2, "Frontier-Guardedness"). An empty body is trivially guarded. *)
let guard t =
  let bv = body_vars t in
  List.find_opt (fun a -> VarSet.subset bv (Atom.vars a)) t.body

let is_guarded t = t.body = [] || Option.is_some (guard t)

(** [frontier_guard t] — an atom of the body containing all frontier
    variables, if any. *)
let frontier_guard t =
  let fr = frontier t in
  List.find_opt (fun a -> VarSet.subset fr (Atom.vars a)) t.body

let is_frontier_guarded t = t.body = [] || Option.is_some (frontier_guard t)

(** Linear: exactly one body atom (class [L], §3.1). *)
let is_linear t = List.length t.body = 1

(** Full: no existentially quantified variables (class [FULL], §6.1). *)
let is_full t = VarSet.is_empty (existential_vars t)

(** Membership in [FG_m]: frontier-guarded with at most [m] head atoms. *)
let is_fg m t = is_frontier_guarded t && head_size t <= m

let all_guarded sigma = List.for_all is_guarded sigma
let all_frontier_guarded sigma = List.for_all is_frontier_guarded sigma
let all_linear sigma = List.for_all is_linear sigma
let all_full sigma = List.for_all is_full sigma
let max_head_size sigma = List.fold_left (fun m t -> max m (head_size t)) 0 sigma

(* ------------------------------------------------------------------ *)
(* Satisfaction                                                         *)
(* ------------------------------------------------------------------ *)

(** [satisfies inst t] — [inst ⊨ σ]: every homomorphism of the body into
    [inst] extends, on the frontier, to a homomorphism of the head. *)
let satisfies inst t =
  let fr = frontier t in
  let holds_for b =
    let init = VarMap.filter (fun x _ -> VarSet.mem x fr) b in
    Homomorphism.exists ~init t.head inst
  in
  Homomorphism.fold_homs t.body inst (fun b acc -> acc && holds_for b) true

(** [satisfies_all inst sigma] — [inst ⊨ Σ]. *)
let satisfies_all inst sigma = List.for_all (satisfies inst) sigma

(* ------------------------------------------------------------------ *)
(* Normalization helpers                                                *)
(* ------------------------------------------------------------------ *)

(** Split a full TGD into single-head full TGDs with the same body (used in
    Theorem D.1's proof; only sound for full TGDs, checked). *)
let split_full t =
  if not (is_full t) then invalid_arg "Tgd.split_full: TGD is not full"
  else List.map (fun h -> { body = t.body; head = [ h ] }) t.head

(** Rename all variables with a suffix (for taking TGDs apart from a
    query's variables during rewriting). *)
let rename_apart ~suffix t =
  let subst =
    VarSet.fold
      (fun x acc -> VarMap.add x (Var (x ^ suffix)) acc)
      (VarSet.union (body_vars t) (head_vars t))
      VarMap.empty
  in
  {
    body = List.map (Atom.apply subst) t.body;
    head = List.map (Atom.apply subst) t.head;
  }

(** Body of the TGD as a Boolean CQ [q_φ] with the frontier as answers
    (used by Proposition 4.5-style checks). *)
let body_cq t =
  Cq.make ~answer:(VarSet.elements (frontier t)) t.body

let pp ppf t =
  let pp_atoms = Fmt.(list ~sep:(any ", ") Atom.pp) in
  let ex = VarSet.elements (existential_vars t) in
  if ex = [] then Fmt.pf ppf "%a -> %a" pp_atoms t.body pp_atoms t.head
  else
    Fmt.pf ppf "%a -> ∃%a %a" pp_atoms t.body
      Fmt.(list ~sep:(any ",") string)
      ex pp_atoms t.head
