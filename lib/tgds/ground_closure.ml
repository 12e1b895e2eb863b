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
    fixpoint over finitely many bag types.

    The registry of bag types also holds the {e Σ-types} of Lemma A.3
    that the linearization needs: the type of a fact is keyed the same
    way, by its predicate, the class pattern of its tuple and the facts
    over its classes, and gets a dense id. *)

open Relational
open Relational.Term
module Index = Engine.Index
module Symtab = Engine.Symtab

(* A bag type, over classes: the constants of Σ first, each standing for
   itself, then the frontier tuple's cells by first occurrence, class [k]
   standing for the variable [cvar k]; the existentials of a rule with
   [m] classes are the classes from [m] on. The child bag is
   [head @ ctx] with every class variable read as the constant of the
   same name; [derived] is [F] and [store] the child bag's closure, both
   from its last closure run. *)
type bag = {
  body : Atom.t list;
  head : Atom.t list;
  ctx : Atom.t list;
  classes : int;
  mutable derived : Atom.t list;
  mutable store : Index.t option;
}

(* A Σ-type over classes as a bag's, read as constants: its guard and
   the store of its atoms. *)
type sigma_type = { guard : Fact.t; atoms : Index.t }

type entry = Bag of bag | Type of int

(* What a key is read with: Σ's constants, the fixed classes [0 … ]
   of every key, and the table the context atoms' predicates are
   interned in, so keys read from different stores compare. *)
type keying = { consts : const array; preds : Symtab.t }

type t = {
  sigma : Tgd.t list;
  full : Engine.Saturate.rule list;
  existential : (Tgd.t * string list) array;  (** σ and its frontier *)
  kg : keying;
  keys : entry Index.Keytbl.t;
  mutable bags : bag list;  (** newest first *)
  types : (int, sigma_type) Hashtbl.t;  (** by dense id *)
}

let keying sigma =
  {
    consts =
      List.concat_map (fun s -> Tgd.body s @ Tgd.head s) sigma
      |> List.fold_left (fun cs a -> ConstSet.union (Atom.consts a) cs) ConstSet.empty
      |> ConstSet.elements |> Array.of_list;
    preds = Symtab.create ();
  }

let create sigma =
  if not (Tgd.all_guarded sigma) then
    invalid_arg "Ground_closure.create: Σ must be guarded";
  let full, existential = List.partition Tgd.is_full sigma in
  {
    sigma;
    full = (full : Tgd.t list :> Engine.Saturate.rule list);
    existential =
      Array.of_list
        (List.map (fun s -> (s, VarSet.elements (Tgd.frontier s))) existential);
    kg = keying sigma;
    keys = Index.Keytbl.create 64;
    bags = [];
    types = Hashtbl.create 16;
  }

let cvar k = Printf.sprintf "\001%d" k
let term t k = if k < Array.length t.kg.consts then Const t.kg.consts.(k) else Var (cvar k)
let ground_term = function Var x -> Named x | Const c -> c
let ground a = Fact.make (Atom.pred a) (List.map ground_term (Atom.args a))
let class_of classes c = Option.get (Array.find_index (( = ) c) classes)

(* The facts of [idx] over the cells [classes] ([-1] for a constant of Σ
   the store lacks), as [| pred; class… |], sorted. *)
let context kg idx classes =
  let st = Index.symtab idx in
  Index.fold_within idx
    (Array.of_list (List.filter (( <= ) 0) (Array.to_list classes)))
    (fun key acc ->
      Array.mapi
        (fun i c ->
          if i > 0 then class_of classes c
          else Symtab.intern_pred kg.preds (Symtab.extern_pred st c))
        key
      :: acc)
    []
  |> List.sort Stdlib.compare

let atom t a =
  Atom.make (Symtab.extern_pred t.kg.preds a.(0))
    (List.init (Array.length a - 1) (fun i -> term t a.(i + 1)))

(* The registry key of the cells [cells] of [idx] under [tag] — the tag,
   the cells' class pattern and the facts over their classes — with the
   number of classes, the pattern and those facts. *)
let key kg idx tag cells =
  let st = Index.symtab idx in
  let classes =
    List.fold_left
      (fun l c -> if List.mem c l then l else l @ [ c ])
      (Array.to_list (Array.map (Symtab.find_int st) kg.consts))
      cells
    |> Array.of_list
  in
  let pattern = List.map (class_of classes) cells in
  let ctx = context kg idx classes in
  ( Array.length classes,
    pattern,
    ctx,
    Array.concat
      ([| tag |] :: Array.of_list pattern
      :: List.concat_map (fun a -> [ [| Array.length a |]; a ]) ctx) )

let bag_key kg idx tag cells =
  let _, _, _, key = key kg idx tag cells in
  key

(* The bag type of one existential trigger [b] of rule [r] in the closed
   store [idx], keyed by [r], the frontier pattern and the context
   atoms; registered when new. *)
let bag t idx r (sigma, frontier) b =
  let st = Index.symtab idx in
  let cells = List.map (fun x -> Symtab.find_int st (VarMap.find x b)) frontier in
  let m, pattern, ctx, key = key t.kg idx r cells in
  match Index.Keytbl.find_opt t.keys key with
  | Some (Bag bag) -> bag
  | _ ->
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
          store = None;
        }
      in
      Index.Keytbl.replace t.keys key (Bag bag);
      t.bags <- bag :: t.bags;
      bag

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
  let idx =
    (Engine.Saturate.run (t.full @ emitted) (Engine.Index.of_instance inst))
      .Engine.Saturate.index
  in
  let counters = Engine.Joiner.counters idx in
  Array.iteri
    (fun r ((sigma, _) as rule) ->
      Engine.Joiner.fold ~counters (Tgd.body sigma) idx
        (fun b () -> ignore (bag t idx r rule b))
        ())
    t.existential;
  idx

(* Close [b]'s child bag; [true] when [F] grew. *)
let reclose t b =
  let idx = saturate t (Instance.of_facts (List.map ground (b.head @ b.ctx))) in
  b.store <- Some idx;
  let st = Index.symtab idx in
  let cell k = Symtab.find_int st (ground_term (term t k)) in
  let classes = Array.init b.classes cell in
  let derived =
    List.map (atom t) (context t.kg idx classes)
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

(* A Σ-type is registered like a bag type, under the negated tag
   [-1 - p] for its guard predicate [p], so the two never share a key. *)
let type_id t idx f =
  let st = Index.symtab idx in
  let _, pattern, ctx, key =
    key t.kg idx
      (-1 - Symtab.intern_pred t.kg.preds (Fact.pred f))
      (List.map (Symtab.find_int st) (Fact.args f))
  in
  match Index.Keytbl.find_opt t.keys key with
  | Some (Type i) -> i
  | _ ->
      let i = Hashtbl.length t.types and atoms = Index.create () in
      List.iter (fun a -> ignore (Index.insert (ground (atom t a)) atoms)) ctx;
      let guard = ground (Atom.make (Fact.pred f) (List.map (term t) pattern)) in
      Hashtbl.replace t.types i { guard; atoms };
      Index.Keytbl.replace t.keys key (Type i);
      i

let type_count t = Hashtbl.length t.types
let type_guard t i = (Hashtbl.find t.types i).guard

(* Every trigger in a type's atoms is one of the closed store the type
   was read from, so the trigger scan there registered its bag type and
   [close] settled it: the bag's store is set. *)
let type_triggers t i =
  let ty = Hashtbl.find t.types i in
  let counters = Engine.Joiner.counters ty.atoms in
  List.concat_map
    (fun sigma ->
      match Tgd.guard sigma with
      | Some g when Atom.pred g = Fact.pred ty.guard ->
          Engine.Joiner.fold ~counters (Tgd.body sigma) ty.atoms
            (fun h acc ->
              let fact a = Fact.of_atom (Homomorphism.apply_binding h a) in
              if not (Fact.equal (fact g) ty.guard) then acc
              else
                let children =
                  match
                    Array.find_index (fun (s, _) -> s == sigma) t.existential
                  with
                  | None ->
                      List.map (fun a -> type_id t ty.atoms (fact a)) (Tgd.head sigma)
                  | Some r ->
                      let b = bag t ty.atoms r t.existential.(r) h in
                      List.map (fun a -> type_id t (Option.get b.store) (ground a)) b.head
                in
                (sigma, children) :: acc)
            []
      | _ -> [])
    t.sigma

let compute sigma db = Index.to_instance (close (create sigma) db)

let type_of sigma db consts =
  let idx = close (create sigma) db in
  let st = Index.symtab idx in
  let cids =
    List.map (Symtab.find_int st) (ConstSet.elements consts)
    |> List.filter (( <= ) 0) |> List.sort_uniq Int.compare
  in
  Index.fold_within idx (Array.of_list cids)
    (fun key acc -> Index.decode_key idx key :: acc)
    []
  |> Instance.of_facts

let entails_atom sigma db fact = Index.mem fact (close (create sigma) db)
