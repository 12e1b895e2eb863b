(** Finite witnesses for strong finite controllability (Definition 6.5,
    Theorem 6.7).

    [build ~n sigma db] produces a *finite* model [M ⊇ db] of [sigma]
    intended to answer every UCQ with at most [n] variables exactly like
    [chase(db,sigma)].

    Substitution (DESIGN.md §5): the paper obtains [M(D,Σ,n)] from the
    finite model property of GNFO at a doubly-exponential size bound, which
    is not effectively constructible. Here [M] is built by *type-blocking*
    the oblivious chase, run on the saturation engine: a trigger whose head
    lands beyond s-level [n+1] takes its nulls from a pool kept per bag
    type instead of inventing fresh ones ("rewinding" the chase). The bag
    type is {!Tgds.Ground_closure.bag_key} of the rule and its frontier
    tuple; there are finitely many, so the run saturates. Every trigger
    fires, so the result is always a finite model of [db ∧ Σ]; blocking
    only beyond depth [n] keeps matches of ≤ n-variable queries intact on
    the workloads shipped here, and every use in tests and reductions is
    cross-checked against the level-bounded chase. *)

open Relational
open Relational.Term
module Tgd = Tgds.Tgd
module Saturate = Engine.Saturate

(* The fact budget of {!build}. *)
let max_facts = 200_000

(* A bag type's pool: its representative null tuples, filled on first
   use, and how often it was used. *)
type pool = { reps : int array option array; mutable uses : int }

let fresh_payloads k =
  Array.init k (fun _ ->
      match fresh_null () with Null p -> p | Named _ -> assert false)

(** [build ~n sigma db] — the blocked chase, blocking beyond depth
    [blocking_depth = n+1]. The result is guaranteed to be a model of
    [sigma] containing [db] whenever the run completes within [max_facts]
    (raises [Failure] otherwise). Each bag type owns a pool of [n+2]
    (at least 3) representative null tuples used round-robin, so a
    rewired chain closes into a cycle of that length — longer than any
    ≤ n-variable query can trace. *)
let build ~n sigma db =
  let blocking_depth = n + 1 and size = max 3 (n + 2) in
  let kg = Tgds.Ground_closure.keying sigma in
  (* per rule: its existential count and the positions of its frontier
     in the trigger's cells (the body variables in [VarSet] order) *)
  let shape =
    Array.of_list
      (List.map
         (fun t ->
           let body = VarSet.elements (Tgd.body_vars t) in
           ( VarSet.cardinal (Tgd.existential_vars t),
             List.filter_map
               (fun x -> List.find_index (String.equal x) body)
               (VarSet.elements (Tgd.frontier t)) ))
         sigma)
  in
  let idx = Engine.Index.of_instance db in
  let pools = Engine.Index.Keytbl.create 64 in
  let nulls fr ~level =
    let r = Saturate.fire_rule fr in
    let k, frontier = shape.(r) in
    if level <= blocking_depth then fresh_payloads k
    else
      let key =
        Tgds.Ground_closure.bag_key kg idx r
          (List.map (Saturate.fire_cell fr) frontier)
      in
      let pool =
        match Engine.Index.Keytbl.find_opt pools key with
        | Some p -> p
        | None ->
            let p = { reps = Array.make size None; uses = 0 } in
            Engine.Index.Keytbl.replace pools key p;
            p
      in
      (* rotate through the pool by use order (not by depth, whose
         stride depends on the ontology's shape): a lone rewired chain
         then closes into a cycle of length [size] exactly; chains that
         share a bag type share its pool *)
      let i = pool.uses mod size in
      pool.uses <- pool.uses + 1;
      match pool.reps.(i) with
      | Some reps -> reps
      | None ->
          let reps = fresh_payloads k in
          pool.reps.(i) <- Some reps;
          reps
  in
  let r =
    Saturate.run
      ~budget:(Obs.Budget.create ~max_facts ())
      ~nulls
      (sigma : Tgd.t list :> Saturate.rule list)
      idx
  in
  if r.Saturate.outcome <> Obs.Budget.Complete then
    failwith "Finite_witness.build: fact budget exhausted";
  Engine.Index.to_instance idx

(** [verify sigma db m] — sanity check: [m] contains [db] and models
    [sigma]. *)
let verify sigma db m = Instance.subset db m && Tgd.satisfies_all m sigma
