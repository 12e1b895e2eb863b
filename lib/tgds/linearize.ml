(** Linearization of guarded TGD sets (Lemma A.3, Appendix A.1).

    From a guarded set Σ and a database D, builds a database [D*] and a
    *linear* set [Σ* = Σ*_tg ∪ Σ*_ex] such that
    [Q(D) = q(chase(D_star, Σ_star))] for [Q = (S,Σ,q)]. Facts of [D*] have the form
    [⟨τ⟩(c̄)] where the predicate names a Σ-type τ — the shape of a guard
    atom together with the side atoms over its constants — and [Σ*]
    consists of the *type generator* (deriving new type facts from old
    ones, simulating guarded chase steps) and the *expander* (recovering
    the guard atom of each type).

    The Σ-types are the ones {!Ground_closure} registers next to its bag
    types, so both routes share one definition of a type, Σ's constants
    included; [⟨τ⟩] is named by the type's id.

    Deviation from the paper, documented in DESIGN.md §5: instead of
    enumerating all (exponentially many) Σ-types up front, types and their
    rules are materialized on demand, starting from the types of [D*] and
    closing under the type generator. The resulting [Σ*] is exactly the
    reachable fragment of the paper's [Σ*], which chases identically from
    [D*]. *)

open Relational

type t = {
  db_star : Fact.t list;
  sigma_star : Tgd.t list;
  types : int;
  complete : bool;
}

(* The cap on the type exploration of {!make}. *)
let max_types = 4000

let make sigma db =
  (* A bodiless rule has a single trigger, which the chase fires once: a
     ground head is seeded into D before D is typed. An existential head
     needs a null, which no fact of D* can hold, so such a rule is left
     out and the result flagged incomplete. *)
  let bodiless = List.filter (fun s -> Tgd.body s = []) sigma in
  let seedable s = List.for_all Atom.is_ground (Tgd.head s) in
  let db =
    List.fold_left
      (fun db s ->
        if seedable s then
          List.fold_left (fun db a -> Instance.add_fact (Fact.of_atom a) db) db (Tgd.head s)
        else db)
      db bodiless
  in
  let gc = Ground_closure.create sigma in
  let closure = Ground_closure.close gc db in
  let typed =
    Instance.fold
      (fun f acc -> (Ground_closure.type_id gc closure f, f) :: acc)
      db []
  in
  (* Explore the types in id order; exploring one registers its
     children, which get the next ids. *)
  let rec explore i acc =
    if i >= min max_types (Ground_closure.type_count gc) then (i, acc)
    else
      explore (i + 1)
        (List.map (fun r -> (i, r)) (Ground_closure.type_triggers gc i) @ acc)
  in
  let explored, generated = explore 0 [] in
  let name =
    Array.init (Ground_closure.type_count gc) (Printf.sprintf "⟨τ%d⟩")
  in
  let typed_atom i a = Atom.make name.(i) (Atom.args a) in
  (* ⟨τ⟩(x1,…,xk) → R(x1,…,xk) *)
  let expander i =
    let g = Ground_closure.type_guard gc i in
    let xs =
      List.init (Fact.arity g) (fun k -> Term.Var (Printf.sprintf "x%d" (k + 1)))
    in
    Tgd.make ~body:[ Atom.make name.(i) xs ] ~head:[ Atom.make (Fact.pred g) xs ]
  in
  (* ⟨τ⟩(ū) → ∃z̄ ⟨τ1⟩(ū1), …, ⟨τn⟩(ūn) *)
  let generator (i, (sigma, children)) =
    Tgd.make
      ~body:[ typed_atom i (Option.get (Tgd.guard sigma)) ]
      ~head:(List.map2 typed_atom children (Tgd.head sigma))
  in
  {
    db_star = List.map (fun (i, f) -> Fact.make name.(i) (Fact.args f)) typed;
    sigma_star =
      List.init explored expander
      @ List.sort_uniq Tgd.compare (List.map generator generated);
    types = explored;
    complete =
      explored = Ground_closure.type_count gc && List.for_all seedable bodiless;
  }
