(** Ground closure of the guarded chase, on the saturation engine.

    For a guarded set Σ and a database D, computes
    [chase↓(D,Σ) = { R(ā) ∈ chase(D,Σ) | ā ⊆ dom(D) }] — the instance
    called [complete(D,Σ)] and [D⁺] in Appendix A/F, and the source of the
    atom types [typeD,Σ(α)]. Unlike the chase itself, the ground closure is
    always finite, and for fixed Σ computable in polynomial time.

    Algorithm: the closure of an instance is one {!Engine.Saturate.run}
    over it, with Σ's full rules plus one emitted full rule per {e bag
    type} met so far: [body(σ) ∧ C(x̄) → F(x̄)], where σ is an existential
    rule with frontier x̄, [C] the context of a trigger (its atoms over
    the frontier constants) and [F] what the child bag [head(σ) ∪ C]
    derives over the frontier. Guardedness makes this complete: a guarded
    body always maps into the atoms over a single atom's constants, so no
    derivation spans bags (§A, properties of [typeD,Σ]). A child bag is
    closed by the same function that closes D; an outer loop re-closes
    the registered bag types until no emitted rule grows — the least
    fixpoint over finitely many bag types. *)

open Relational
open Relational.Term
module Index = Engine.Index
module Symtab = Engine.Symtab

(* A bag type, over classes: the constants of Σ first, each standing for
   itself, then the frontier tuple's cells by first occurrence, class [k]
   standing for the variable [cvar k]; the existentials of a rule with
   [m] classes are the classes from [m] on. The child bag is
   [head @ ctx] with every class variable read as the constant of the
   same name; [derived] is [F]. *)
type bag = {
  body : Atom.t list;
  head : Atom.t list;
  ctx : Atom.t list;
  classes : int;
  mutable derived : Atom.t list;
}

type t = {
  full : Engine.Saturate.rule list;
  existential : (Tgd.t * string list) array;  (** σ and its frontier *)
  consts : const array;  (** the constants of Σ *)
  preds : Symtab.t;  (** the predicates of context atoms in keys *)
  keys : unit Index.Keytbl.t;
  mutable bags : bag list;  (** newest first *)
}

let create sigma =
  if not (Tgd.all_guarded sigma) then
    invalid_arg "Ground_closure.create: Σ must be guarded";
  let full, existential = List.partition Tgd.is_full sigma in
  {
    full = (full : Tgd.t list :> Engine.Saturate.rule list);
    existential =
      Array.of_list
        (List.map (fun s -> (s, VarSet.elements (Tgd.frontier s))) existential);
    consts =
      List.concat_map (fun s -> Tgd.body s @ Tgd.head s) sigma
      |> List.fold_left (fun cs a -> ConstSet.union (Atom.consts a) cs) ConstSet.empty
      |> ConstSet.elements |> Array.of_list;
    preds = Symtab.create ();
    keys = Index.Keytbl.create 64;
    bags = [];
  }

let cvar k = Printf.sprintf "\001%d" k
let term t k = if k < Array.length t.consts then Const t.consts.(k) else Var (cvar k)
let ground_term = function Var x -> Named x | Const c -> c
let ground a = Fact.make (Atom.pred a) (List.map ground_term (Atom.args a))
let class_of classes c = Option.get (Array.find_index (( = ) c) classes)

(* The facts of [idx] over the cells [classes] ([-1] for a constant of Σ
   the store lacks), as [| pred; class… |], sorted. *)
let context t idx classes =
  let st = Index.symtab idx in
  Index.fold_within idx
    (Array.of_list (List.filter (( <= ) 0) (Array.to_list classes)))
    (fun key acc ->
      Array.mapi
        (fun i c ->
          if i > 0 then class_of classes c
          else Symtab.intern_pred t.preds (Symtab.extern_pred st c))
        key
      :: acc)
    []
  |> List.sort Stdlib.compare

let atom t a =
  Atom.make (Symtab.extern_pred t.preds a.(0))
    (List.init (Array.length a - 1) (fun i -> term t a.(i + 1)))

(* Register the bag type of one existential trigger [b] of rule [r] in
   the closed store [idx], keyed by [r], the frontier pattern and the
   context atoms. *)
let register t idx r (sigma, frontier) b =
  let st = Index.symtab idx in
  let cells = List.map (fun x -> Symtab.find_int st (VarMap.find x b)) frontier in
  let classes =
    List.fold_left
      (fun l c -> if List.mem c l then l else l @ [ c ])
      (Array.to_list (Array.map (Symtab.find_int st) t.consts))
      cells
    |> Array.of_list
  in
  let pattern = List.map (class_of classes) cells in
  let ctx = context t idx classes in
  let key =
    Array.concat
      ([| r |] :: Array.of_list pattern
      :: List.concat_map (fun a -> [ [| Array.length a |]; a ]) ctx)
  in
  if not (Index.Keytbl.mem t.keys key) then begin
    Index.Keytbl.replace t.keys key ();
    let m = Array.length classes in
    let sub =
      List.combine frontier pattern
      @ List.mapi (fun i z -> (z, m + i)) (VarSet.elements (Tgd.existential_vars sigma))
      |> List.fold_left (fun s (x, k) -> VarMap.add x (term t k) s) VarMap.empty
    in
    let bag =
      {
        body = List.map (Atom.apply sub) (Tgd.body sigma);
        head = List.map (Atom.apply sub) (Tgd.head sigma);
        ctx = List.map (atom t) ctx;
        classes = m;
        derived = [];
      }
    in
    t.bags <- bag :: t.bags
  end

(* One closure run: saturate [inst] under Σ's full rules and the emitted
   ones, then register the bag types of the store's triggers. *)
let saturate t inst =
  Obs.Probe.hit "ground_closure.round";
  let emitted =
    List.filter_map
      (fun b ->
        if b.derived = [] then None
        else Some { Engine.Saturate.body = b.body @ b.ctx; head = b.derived })
      t.bags
  in
  let idx = (Engine.Saturate.run (t.full @ emitted) inst).Engine.Saturate.index in
  let counters = Engine.Joiner.counters idx in
  Array.iteri
    (fun r ((sigma, _) as rule) ->
      Engine.Joiner.fold ~counters (Tgd.body sigma) idx
        (fun b () -> register t idx r rule b)
        ())
    t.existential;
  idx

(* Close [b]'s child bag; [true] when [F] grew. *)
let reclose t b =
  let idx = saturate t (Instance.of_facts (List.map ground (b.head @ b.ctx))) in
  let st = Index.symtab idx in
  let cell k = Symtab.find_int st (ground_term (term t k)) in
  let classes = Array.init b.classes cell in
  let derived =
    List.map (atom t) (context t idx classes)
    |> List.filter (fun a -> not (List.mem a b.ctx))
  in
  List.length derived > List.length b.derived
  && begin
       b.derived <- derived;
       true
     end

(* Re-close every registered bag type until no emitted rule grows and no
   new bag type appears; [true] when some emitted rule grew. *)
let rec settle t =
  let n = List.length t.bags in
  let grew = List.fold_left (fun g b -> reclose t b || g) false (List.rev t.bags) in
  if grew || List.length t.bags > n then settle t || grew else false

(* The closure under the current rules is final when it meets no new bag
   type, or when settling the new ones grew no emitted rule. *)
let rec close t inst =
  let n = List.length t.bags in
  let idx = saturate t inst in
  if List.length t.bags > n && settle t then close t inst else idx

let over idx consts =
  let st = Index.symtab idx in
  let cids = List.filter (fun c -> c >= 0) (List.map (Symtab.find_int st) consts) in
  Index.fold_within idx
    (Array.of_list (List.sort_uniq Int.compare cids))
    (fun key acc -> Index.decode_key idx key :: acc)
    []

let compute sigma db = Index.to_instance (close (create sigma) db)

let type_of sigma db consts =
  Instance.of_facts (over (close (create sigma) db) (ConstSet.elements consts))

let entails_atom sigma db fact = Index.mem fact (close (create sigma) db)
