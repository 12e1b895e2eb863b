(** Finite witnesses for strong finite controllability (Definition 6.5,
    Theorem 6.7).

    [build ~n sigma db] produces a *finite* model [M ⊇ db] of [sigma]
    intended to answer every UCQ with at most [n] variables exactly like
    [chase(db,sigma)].

    Substitution (DESIGN.md §5): the paper obtains [M(D,Σ,n)] from the
    finite model property of GNFO at a doubly-exponential size bound, which
    is not effectively constructible. Here [M] is built by *type-blocking*
    the guarded chase: a trigger fired at depth beyond [blocking_depth]
    whose child bag has an isomorphism type seen before reuses the
    representative bag's nulls instead of inventing fresh ones ("rewinding"
    the chase). The result is always a finite model of [db ∧ Σ]; blocking
    only beyond depth [n] keeps matches of ≤ n-variable queries intact on
    the workloads shipped here, and every use in tests and reductions is
    cross-checked against the level-bounded chase. *)

open Relational
open Relational.Term
module Tgd = Tgds.Tgd

(* Canonical constants used inside memoized bags. *)
let canon_const i = Named (Printf.sprintf "\001%d" i)

(* All permutations of a list (used for canonical forms of small bags). *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

(* Encode an instance renamed by [assoc : (const * const) list]. *)
let encode inst assoc =
  Instance.facts inst
  |> List.map (fun f ->
         let f = Fact.rename (fun c -> List.assoc_opt c assoc) f in
         Fmt.str "%a" Fact.pp f)
  |> List.sort String.compare
  |> String.concat ";"

(** Canonicalize a small instance: a key invariant under renaming of
    constants, together with the renaming used and its inverse. For bags of
    more than 7 constants the first-occurrence order is used instead of the
    minimal permutation — still sound and terminating, only weaker
    sharing. *)
let canonicalize inst =
  let consts = ConstSet.elements (Instance.dom inst) in
  let m = List.length consts in
  let with_order order =
    List.mapi (fun i c -> (c, canon_const i)) order
  in
  let assoc =
    if m > 7 then with_order consts
    else
      permutations consts
      |> List.map with_order
      |> List.map (fun a -> (encode inst a, a))
      |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)
      |> List.hd |> snd
  in
  let key = encode inst assoc in
  let inverse = List.map (fun (c, d) -> (d, c)) assoc in
  (key, assoc, inverse)

(* Marker predicate distinguishing frontier constants inside canonical
   keys (so that bag canonicalization cannot exchange a frontier constant
   with an invented one). *)
let frontier_marker = "\004FR"

let child_key sigma_index head_atoms (b : Homomorphism.binding) inst frontier_consts =
  (* head atoms instantiated with frontier constants, existentials as
     canonical placeholders *)
  let ex_subst = Hashtbl.create 4 in
  let bag_atoms =
    List.map
      (fun a ->
        Fact.make (Atom.pred a)
          (List.map
             (function
               | Const c -> c
               | Var x -> (
                   match VarMap.find_opt x b with
                   | Some c -> c
                   | None ->
                       (match Hashtbl.find_opt ex_subst x with
                       | Some c -> c
                       | None ->
                           let c =
                             Named (Printf.sprintf "\003z%d" (Hashtbl.length ex_subst))
                           in
                           Hashtbl.replace ex_subst x c;
                           c)))
             (Atom.args a)))
      head_atoms
  in
  let context = Instance.restrict inst frontier_consts in
  let markers =
    ConstSet.fold (fun c acc -> Fact.make frontier_marker [ c ] :: acc) frontier_consts []
  in
  let bag =
    Instance.of_facts (bag_atoms @ markers) |> fun i -> Instance.union i context
  in
  let key, _, _ = canonicalize bag in
  Printf.sprintf "%d|%s" sigma_index key

(* The fact budget of {!build}. *)
let max_facts = 200_000

(** [build ~n sigma db] — the blocked chase, blocking beyond depth
    [blocking_depth = n+1]. The result is guaranteed to be a model of
    [sigma] containing [db] whenever the run completes within [max_facts]
    (raises [Failure] otherwise). Each bag type owns a pool of [n+2]
    representative null-tuples used round-robin by trigger depth, so a
    rewired chain closes into a cycle of length [n+2] — longer than any
    ≤ n-variable query can trace. *)
let build ~n sigma db =
  let blocking_depth = n + 1 in
  let sigma_arr = Array.of_list sigma in
  let level_of : (Fact.t, int) Hashtbl.t = Hashtbl.create 256 in
  let fired = Hashtbl.create 256 in
  let representatives : (string, const VarMap.t) Hashtbl.t = Hashtbl.create 64 in
  let counters : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  let inst = ref db in
  Instance.iter (fun f -> Hashtbl.replace level_of f 0) db;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i t ->
        let triggers =
          Homomorphism.fold_homs (Tgd.body t) !inst
            (fun b acc ->
              let bv = VarSet.elements (Tgd.body_vars t) in
              let key = (i, List.map (fun x -> VarMap.find_opt x b) bv) in
              if Hashtbl.mem fired key then acc else (b, key) :: acc)
            []
        in
        List.iter
          (fun (b, key) ->
            Hashtbl.replace fired key ();
            let body_level =
              List.fold_left
                (fun acc a ->
                  let f = Fact.of_atom (Homomorphism.apply_binding b a) in
                  max acc (try Hashtbl.find level_of f with Not_found -> 0))
                0 (Tgd.body t)
            in
            let ex = Tgd.existential_vars t in
            let frontier_consts =
              VarSet.fold
                (fun x acc ->
                  match VarMap.find_opt x b with
                  | Some c -> ConstSet.add c acc
                  | None -> acc)
                (Tgd.frontier t) ConstSet.empty
            in
            let ex_binding =
              if VarSet.is_empty ex then VarMap.empty
              else if body_level + 1 <= blocking_depth then
                VarSet.fold (fun z acc -> VarMap.add z (fresh_null ()) acc) ex VarMap.empty
              else begin
                let ck = child_key i (Tgd.head t) b !inst frontier_consts in
                let pool = max 3 (n + 2) in
                (* rotate through the type's pool by use order (not by
                   depth, whose stride depends on the ontology's shape):
                   a rewired chain then closes into a cycle of length
                   [pool] exactly *)
                let count =
                  match Hashtbl.find_opt counters ck with
                  | Some r -> r
                  | None ->
                      let r = ref 0 in
                      Hashtbl.replace counters ck r;
                      r
                in
                let idx = !count mod pool in
                incr count;
                let key = Printf.sprintf "%s!%d" ck idx in
                match Hashtbl.find_opt representatives key with
                | Some reps -> reps
                | None ->
                    let reps =
                      VarSet.fold
                        (fun z acc -> VarMap.add z (fresh_null ()) acc)
                        ex VarMap.empty
                    in
                    Hashtbl.replace representatives key reps;
                    reps
              end
            in
            let full = VarMap.union (fun _ a _ -> Some a) b ex_binding in
            List.iter
              (fun h ->
                let f = Fact.of_atom (Homomorphism.apply_binding full h) in
                if not (Instance.mem f !inst) then begin
                  inst := Instance.add_fact f !inst;
                  Hashtbl.replace level_of f (body_level + 1);
                  changed := true;
                  if Instance.size !inst > max_facts then
                    failwith "Finite_witness.build: fact budget exhausted"
                end)
              (Tgd.head t))
          triggers)
      sigma_arr
  done;
  !inst

(** [verify sigma db m] — sanity check: [m] contains [db] and models
    [sigma]. *)
let verify sigma db m = Instance.subset db m && Tgd.satisfies_all m sigma
