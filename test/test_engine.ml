(* Randomized cross-validation of the indexed semi-naive saturation engine
   (lib/engine) against the naive re-enumerating chase of the Naive_chase
   oracle: identical s-levels (Lemma A.1 canonicity is preserved by the
   delta-driven evaluation), identical certain answers, budget-cut prefixes, saturation idempotence,
   and joiner/index unit properties. Generators live in Generators. *)

open Relational
open Relational.Term
module Chase = Tgds.Chase

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let v = Generators.v
let atom = Generators.atom
let fact = Generators.fact
let tgd = Generators.tgd
let arb_sigma_db = Generators.arb_sigma_db
let queries = Generators.queries

(* ------------------------------------------------------------------ *)
(* Level-wise equivalence: chase^ℓ_s agrees level by level              *)
(* ------------------------------------------------------------------ *)

let max_level = 6

let levels_agree ~policy (sigma, db) =
  let naive = Naive_chase.run ~policy ~max_level ~max_facts:5000 sigma db in
  let indexed = Chase.run ~policy ~max_level ~max_facts:5000 sigma db in
  naive.Naive_chase.saturated = Chase.saturated indexed
  && List.for_all
       (fun l ->
         Instance.size (Naive_chase.up_to_level naive l)
         = Instance.size (Chase.up_to_level indexed l))
       (List.init (max_level + 1) Fun.id)

let prop_levels_oblivious =
  QCheck.Test.make ~name:"indexed ≍ naive per level (oblivious)" ~count:200
    arb_sigma_db
    (levels_agree ~policy:Chase.Oblivious)

let prop_levels_restricted =
  QCheck.Test.make ~name:"indexed ≍ naive per level (restricted)" ~count:200
    arb_sigma_db
    (levels_agree ~policy:Chase.Restricted)

(* ------------------------------------------------------------------ *)
(* Certain answers agree with the naive oracle                          *)
(* ------------------------------------------------------------------ *)

let prop_certain_agrees =
  QCheck.Test.make ~name:"certain answers agree across engines" ~count:120
    arb_sigma_db (fun (sigma, db) ->
      List.for_all
        (fun q ->
          let vn, en = Naive_chase.certain ~max_level:8 sigma db q [] in
          let vi, ei = Chase.certain ~max_level:8 sigma db q [] in
          en = ei && ((not en) || vn = vi))
        queries)

(* ------------------------------------------------------------------ *)
(* Idempotence: saturating an already-saturated instance is a no-op     *)
(* ------------------------------------------------------------------ *)

(* Restricted re-saturation dismisses every trigger of a saturated
   instance (its head is witnessed), whatever policy produced it. *)
let prop_resaturate_restricted_noop =
  QCheck.Test.make ~name:"restricted re-saturation of a saturated chase is a no-op"
    ~count:150 arb_sigma_db (fun (sigma, db) ->
      let r = Chase.run ~max_level:6 ~max_facts:2000 sigma db in
      (not (Chase.saturated r))
      ||
      let r2 = Chase.run ~policy:Chase.Restricted sigma (Chase.instance r) in
      Chase.saturated r2
      && Chase.max_level r2 = 0
      && Instance.size (Chase.instance r2) = Instance.size (Chase.instance r))

(* Oblivious re-saturation is only a no-op without existentials (a fresh
   run re-fires existential triggers with fresh nulls); on the full pool
   every re-fired head is already present, so the instance is unchanged. *)
let prop_resaturate_oblivious_full_noop =
  QCheck.Test.make
    ~name:"oblivious re-saturation is a no-op on full programs" ~count:150
    Generators.arb_full_sigma_db (fun (sigma, db) ->
      let r = Chase.run sigma db in
      Chase.saturated r
      &&
      let r2 = Chase.run ~policy:Chase.Oblivious sigma (Chase.instance r) in
      Chase.saturated r2
      && Instance.equal (Chase.instance r2) (Chase.instance r))

(* ------------------------------------------------------------------ *)
(* Budgets: a level-budgeted run is the unbudgeted run truncated        *)
(* ------------------------------------------------------------------ *)

let prop_budget_level_prefix =
  QCheck.Test.make
    ~name:"level-budgeted chase = unbudgeted chase sliced at the budget"
    ~count:120 arb_sigma_db (fun (sigma, db) ->
      let free = Chase.run ~max_level:6 ~max_facts:5000 sigma db in
      let fpl_free = Chase.facts_per_level free in
      (* cumulative per-level sizes are monotone *)
      let cumulative =
        List.map
          (fun l -> Instance.size (Chase.up_to_level free l))
          (List.init 7 Fun.id)
      in
      let monotone =
        List.for_all2 (fun a b -> a <= b)
          (List.filteri (fun i _ -> i < 6) cumulative)
          (List.tl cumulative)
      in
      monotone
      && List.for_all
           (fun k ->
             let b =
               Chase.run
                 ~budget:(Obs.Budget.create ~max_levels:k ())
                 ~max_facts:5000 sigma db
             in
             let fpl_b = Chase.facts_per_level b in
             let expect =
               List.filteri (fun i _ -> i < k) fpl_free
             in
             Chase.max_level b <= k
             && fpl_b = expect
             && Instance.size (Chase.instance b)
                = Instance.size (Chase.up_to_level free (Chase.max_level b)))
           [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Joiner ≡ Homomorphism.fold_homs on random instances                  *)
(* ------------------------------------------------------------------ *)

let sorted_homs fold =
  fold (fun b acc -> VarMap.bindings b :: acc) [] |> List.sort Stdlib.compare

let prop_joiner_matches_fold_homs =
  QCheck.Test.make ~name:"Joiner.fold enumerates the same homomorphisms"
    ~count:200 arb_sigma_db (fun (sigma, db) ->
      let inst = Chase.instance (Chase.run ~max_level:3 ~max_facts:500 sigma db) in
      let idx = Engine.Index.of_instance inst in
      List.for_all
        (fun q ->
          let body = Cq.atoms (List.hd (Ucq.disjuncts q)) in
          sorted_homs (fun f acc -> Homomorphism.fold_homs body inst f acc)
          = sorted_homs (fun f acc ->
                Engine.Joiner.fold ~counters:(Engine.Joiner.counters idx) body idx f acc))
        queries)

(* Differential: answer *sets* (not just counts) of CQ enumeration via the
   joiner agree with the naive fold_homs evaluation. *)
let prop_answer_sets_agree =
  QCheck.Test.make ~name:"Joiner.answers_cq = fold_homs answer set" ~count:200
    (QCheck.make
       ~print:(fun ((s, db), cq) ->
         Fmt.str "%s q=%a" (Generators.print_sigma_db (s, db)) Cq.pp cq)
       QCheck.Gen.(pair (pair Generators.gen_sigma Generators.gen_db) Generators.gen_cq))
    (fun ((sigma, db), cq) ->
      let inst = Chase.instance (Chase.run ~max_level:3 ~max_facts:500 sigma db) in
      let idx = Engine.Index.of_instance inst in
      let via_joiner =
        Engine.Joiner.fold ~counters:(Engine.Joiner.counters idx) (Cq.atoms cq) idx
          (fun b acc ->
            List.map (fun x -> VarMap.find x b) (Cq.answer cq) :: acc)
          []
        |> List.sort_uniq Stdlib.compare
      in
      let naive =
        Homomorphism.fold_homs (Cq.atoms cq) inst
          (fun b acc ->
            List.map (fun x -> VarMap.find x b) (Cq.answer cq) :: acc)
          []
        |> List.sort_uniq Stdlib.compare
      in
      via_joiner = naive)

(* ------------------------------------------------------------------ *)
(* Enumerate ≡ the seed generate-and-test answers                       *)
(* ------------------------------------------------------------------ *)

(* The seed implementation of Omq_eval.answer_set as the oracle:
   entailment-test every |adom|^arity candidate tuple over the chased
   store. The test runs on the reference Homomorphism search over the
   store's facts, not on the compiled search the enumerator shares. *)
let oracle_answers idx db q =
  let dom = Term.ConstSet.elements (Instance.dom db) in
  let inst = Engine.Index.to_instance idx in
  let rec tuples n =
    if n = 0 then [ [] ]
    else
      List.concat_map (fun t -> List.map (fun c -> c :: t) dom) (tuples (n - 1))
  in
  List.filter (fun c -> Ucq.entails inst q c) (tuples (Ucq.arity q))
  |> List.sort_uniq Stdlib.compare

(* The chased store under test: the engine's own index, or one built
   from the naive oracle's instance. *)
let chased_index ~oracle sigma db =
  if oracle then
    Engine.Index.of_instance
      (Naive_chase.run ~max_level:4 ~max_facts:400 sigma db).Naive_chase.instance
  else Chase.index (Chase.run ~max_level:4 ~max_facts:400 sigma db)

let store_to_string oracle = if oracle then "oracle" else "indexed"

let arb_enum_case =
  QCheck.make
    ~print:(fun (((sigma, db), q), oracle) ->
      Fmt.str "%s q=%a store=%s"
        (Generators.print_sigma_db (sigma, db))
        Ucq.pp q (store_to_string oracle))
    QCheck.Gen.(
      pair
        (pair (pair Generators.gen_sigma Generators.gen_db) Generators.gen_ucq)
        bool)

let prop_enumerate_matches_generate_and_test =
  QCheck.Test.make
    ~name:"Enumerate.ucq = generate-and-test oracle (arity 0-3, all engines)"
    ~count:250 arb_enum_case
    (fun (((sigma, db), q), oracle) ->
      let idx = chased_index ~oracle sigma db in
      let enum =
        (Engine.Enumerate.ucq ~universe:(Instance.dom db) idx q)
          .Engine.Enumerate.answers
      in
      enum = oracle_answers idx db q)

(* A facts budget cuts the stream gracefully: the prefix is a subset of
   the exact set, and a Complete outcome means the whole set. *)
let prop_enumerate_budget_prefix =
  QCheck.Test.make ~name:"budgeted enumeration is a prefix of the answer set"
    ~count:150
    (QCheck.make
       ~print:(fun ((((s, db), q), oracle), k) ->
         Fmt.str "%s q=%a store=%s k=%d"
           (Generators.print_sigma_db (s, db))
           Ucq.pp q (store_to_string oracle) k)
       QCheck.Gen.(
         pair
           (pair
              (pair (pair Generators.gen_sigma Generators.gen_db)
                 Generators.gen_ucq)
              bool)
           (int_range 0 5)))
    (fun ((((sigma, db), q), oracle), k) ->
      let idx = chased_index ~oracle sigma db in
      let universe = Instance.dom db in
      let exact = (Engine.Enumerate.ucq ~universe idx q).Engine.Enumerate.answers in
      let budget = Obs.Budget.create ~max_facts:k () in
      let res = Engine.Enumerate.ucq ~budget ~universe idx q in
      List.for_all (fun t -> List.mem t exact) res.Engine.Enumerate.answers
      &&
      match res.Engine.Enumerate.outcome with
      | Obs.Budget.Complete -> res.Engine.Enumerate.answers = exact
      | Obs.Budget.Partial _ ->
          List.length res.Engine.Enumerate.answers <= k + 1)

(* Unit corners of the enumerator: null filtering, free answer
   variables, Boolean queries, cross-disjunct dedup. *)
let test_enumerate_corners () =
  let sigma = [ tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ] ] in
  let db = Instance.of_facts [ fact "A" [ "a" ]; fact "B" [ "b" ] ] in
  let r = Chase.run ~max_level:2 sigma db in
  let idx = Chase.index r in
  let universe = Instance.dom db in
  let answers q =
    (Engine.Enumerate.ucq ~universe idx q).Engine.Enumerate.answers
  in
  (* S(a, n) holds with an invented null n: x=a is an answer of q(x) :-
     S(x,y), but no null ever appears in an answer position *)
  let q1 = Ucq.of_cq (Cq.make ~answer:[ "x" ] [ atom "S" [ v "x"; v "y" ] ]) in
  Alcotest.(check (list (list string)))
    "nulls never surface" [ [ "a" ] ]
    (List.map (List.map (Fmt.str "%a" Term.pp_const)) (answers q1));
  (* a free answer variable ranges over the whole active domain *)
  let q2 = Ucq.of_cq (Cq.make ~answer:[ "z" ] [ atom "A" [ v "x" ] ]) in
  check_int "free variable expands over adom" 2 (List.length (answers q2));
  (* Boolean query: [[]] iff it holds *)
  let q3 = Ucq.of_cq (Cq.make [ atom "S" [ v "x"; v "y" ] ]) in
  check "boolean true is [[]]" true (answers q3 = [ [] ]);
  let q4 = Ucq.of_cq (Cq.make [ atom "T" [ v "x"; v "y" ] ]) in
  check "boolean false is []" true (answers q4 = []);
  (* identical disjuncts dedup into one canonical set *)
  let d = Cq.make ~answer:[ "x" ] [ atom "A" [ v "x" ] ] in
  check "disjuncts dedup" true
    (answers (Ucq.make [ d; d ]) = answers (Ucq.of_cq d))

(* ------------------------------------------------------------------ *)
(* Index unit properties                                                *)
(* ------------------------------------------------------------------ *)

let prop_index_roundtrip =
  QCheck.Test.make ~name:"Index.of_instance/to_instance roundtrip" ~count:200
    (QCheck.make ~print:(Fmt.str "%a" Instance.pp) Generators.gen_db) (fun db ->
      Instance.equal db (Engine.Index.to_instance (Engine.Index.of_instance db)))

(* The facts a fired trigger carries. [closure_pool] plus rules whose
   bodies repeat a predicate, one of them twice the same atom, so two
   body atoms may ground to one fact. On every firing of [run] over a
   part of D, and of [continue] from the rest of D, each body handle is
   the one [Index.handle] finds for the body atom under the trigger's
   binding, its level is the one [key_level] reads, and each head
   handle names a stored fact that matches the head atom, at a level no
   higher than one above the body's. *)
let handle_pool =
  Array.append Generators.closure_pool
    [|
      tgd [ atom "S" [ v "x"; v "y" ]; atom "S" [ v "y"; v "z" ] ] [ atom "T" [ v "x"; v "z" ] ];
      tgd
        [ atom "S" [ v "x"; v "y" ]; atom "S" [ v "y"; v "x" ]; atom "A" [ v "x" ] ]
        [ atom "E" [ v "x"; v "y" ] ];
      tgd [ atom "T" [ v "x"; v "y" ]; atom "T" [ v "x"; v "y" ] ] [ atom "C" [ v "x" ] ];
      tgd
        [ atom "F" [ v "x"; v "y"; v "z" ]; atom "F" [ v "z"; v "y"; v "x" ] ]
        [ atom "S" [ v "x"; v "w" ] ];
    |]

let trigger_facts_agree sigma idx fr =
  let open Engine in
  let st = Index.symtab idx in
  let tgd = List.nth sigma (Saturate.fire_rule fr) in
  let vars = VarSet.elements (Tgds.Tgd.body_vars tgd) in
  let cell x =
    let rec go i = function
      | y :: rest -> if x = y then Saturate.fire_cell fr i else go (i + 1) rest
      | [] -> -1
    in
    go 0 vars
  in
  (* the key of [a] under the binding; [-1] at an existential *)
  let key a =
    Array.of_list
      (Symtab.find_pred_int st (Atom.pred a)
      :: List.map
           (function Const c -> Symtab.find_int st c | Var x -> cell x)
           (Atom.args a))
  in
  let body = Tgds.Tgd.body tgd and head = Tgds.Tgd.head tgd in
  let body_level = ref 0 in
  Saturate.fire_bodies fr = List.length body
  && List.for_all Fun.id
       (List.mapi
          (fun j a ->
            let h = Saturate.fire_body fr j and k = key a in
            body_level := max !body_level (Index.key_level idx k);
            Index.handle idx k = h && Index.handle_level idx h = Index.key_level idx k)
          body)
  && Saturate.fire_outs fr = List.length head
  && List.for_all Fun.id
       (List.mapi
          (fun j a ->
            let h = Saturate.fire_out fr j in
            let stored = Index.handle_key idx h in
            Index.handle idx stored = h
            && Index.handle_level idx h <= !body_level + 1
            && Array.for_all2 (fun want got -> want < 0 || want = got) (key a) stored)
          head)

let prop_trigger_handles =
  QCheck.Test.make ~name:"a fired trigger carries its facts' handles and levels"
    ~count:500
    (QCheck.make ~print:Generators.print_sigma_db
       QCheck.Gen.(pair (Generators.gen_pool_sigma handle_pool) Generators.gen_closure_db))
    (fun (sigma, db) ->
      let open Engine in
      Term.reset_nulls ();
      let rules = (sigma : Tgds.Tgd.t list :> Saturate.rule list) in
      let facts = Instance.facts db in
      let first = List.filteri (fun i _ -> i mod 2 = 0) facts
      and rest = List.filteri (fun i _ -> i mod 2 = 1) facts in
      let idx = Index.of_facts first in
      let ok = ref true in
      let on_fire fr = if not (trigger_facts_agree sigma idx fr) then ok := false in
      let r =
        Saturate.run ~budget:(Obs.Budget.create ~max_levels:4 ~max_facts:2000 ())
          ~on_fire rules idx
      in
      let level = r.Saturate.max_level in
      let prog = Saturate.program rules idx in
      let delta =
        List.filter_map
          (fun f ->
            let k = Index.intern idx f in
            if Index.handle idx k >= 0 then None
            else Some (Index.insert_absent ~level:(level + 1) k idx))
          rest
      in
      ignore
        (Saturate.continue
           ~budget:(Obs.Budget.create ~max_levels:(level + 4) ~max_facts:4000 ())
           ~on_fire prog ~level:(level + 1) delta);
      !ok)

let test_index_postings () =
  let idx =
    Engine.Index.of_instance
      (Instance.of_facts
         [ fact "S" [ "a"; "b" ]; fact "S" [ "a"; "c" ]; fact "S" [ "b"; "c" ] ])
  in
  let count args =
    Engine.Joiner.fold ~counters:(Engine.Joiner.counters idx) [ atom "S" args ] idx
      (fun _ n -> n + 1)
      0
  in
  check_int "bucket (S,0,a)" 2 (count [ Term.const "a"; v "y" ]);
  check_int "bucket (S,1,c)" 2 (count [ v "x"; Term.const "c" ]);
  check_int "relation size" 3 (count [ v "x"; v "y" ]);
  check "duplicate insert rejected" false
    (Engine.Index.insert (fact "S" [ "a"; "b" ]) idx);
  check_int "size unchanged" 3 (Engine.Index.size idx)

(* The s-level column: set at insert, overwritten by set_level and by a
   row reuse from the free list, and counted by capacity_words (which a
   remove/insert cycle must leave unchanged). *)
let test_level_column () =
  let idx = Engine.Index.create () in
  let a = fact "A" [ "a" ] and b = fact "A" [ "b" ] in
  check "fresh insert" true (Engine.Index.insert ~level:3 a idx);
  check "duplicate keeps its level" false (Engine.Index.insert ~level:5 a idx);
  Alcotest.(check (option int)) "level at insert" (Some 3) (Engine.Index.level idx a);
  Engine.Index.set_level idx a 2;
  Alcotest.(check (option int)) "set_level" (Some 2) (Engine.Index.level idx a);
  let cap = Engine.Index.capacity_words idx in
  check "removed" true (Engine.Index.remove a idx);
  Alcotest.(check (option int)) "no level once removed" None (Engine.Index.level idx a);
  check "reinserted into the freed row" true (Engine.Index.insert b idx);
  Alcotest.(check (option int)) "reused row gets the new level" (Some 0)
    (Engine.Index.level idx b);
  check_int "capacity unchanged by the cycle" cap (Engine.Index.capacity_words idx);
  Alcotest.(check (list (pair string int)))
    "ordered facts carry levels" [ ("A(b)", 0) ]
    (List.map (fun (f, l) -> (Fmt.str "%a" Fact.pp f, l)) (Engine.Index.ordered_facts idx))

(* Index churn against a list model. Random insert / remove / set_level
   sequences over an arity-1 and an arity-2 predicate and 6 constants, so
   postings and relations fill up, empty out and cross the tombstone
   compaction threshold many times; interleaved transition walks drive
   single postings through 0 → 1 → 2 → 1 → 2 → 1 → 0 → 1 rows, so the
   inline singleton is promoted to a vector and demoted back (keeping
   either its older or its newer row). After every step the store must
   agree with the model: storage order and levels, size and membership,
   and for every (predicate, position, constant) — and every whole
   relation — the rows [fold_catom] visits, in order, and [catom_count]. *)
type churn_op = Ins of int * int | Rem of int | Lvl of int * int

let churn_consts = Array.init 6 (Printf.sprintf "c%d")

(* fact [i] of the universe: P(c) for i < 6, then R(c,d) *)
let churn_fact i =
  if i < 6 then ("P", [ churn_consts.(i) ])
  else ("R", [ churn_consts.((i - 6) / 6); churn_consts.((i - 6) mod 6) ])

let churn_to_fact i =
  let p, args = churn_fact i in
  fact p args

let churn_universe = 42

let pp_churn_op = function
  | Ins (i, l) -> Printf.sprintf "ins %d@%d" i l
  | Rem i -> Printf.sprintf "rem %d" i
  | Lvl (i, l) -> Printf.sprintf "lvl %d@%d" i l

let gen_churn_op =
  QCheck.Gen.(
    let f = int_bound (churn_universe - 1) and l = int_bound 3 in
    frequency
      [
        (5, map2 (fun i l -> Ins (i, l)) f l);
        (4, map (fun i -> Rem i) f);
        (1, map2 (fun i l -> Lvl (i, l)) f l);
      ])

(* A transition walk on the posting of constant [k] at position [pos] of
   R: empty it (remove its 6 facts), then insert [a], insert [b], remove
   one of them, insert it again, remove one, remove the other, insert
   [c]. Each step names its own fact, so a shrunk walk is still a valid
   op list. *)
let gen_transition_walk =
  QCheck.Gen.(
    let* k = int_bound 5 and* pos = bool and* a = int_bound 5 in
    let* b = map (fun d -> (a + 1 + d) mod 6) (int_bound 4)
    and* c = int_bound 5
    and* l = int_bound 3
    and* first = bool
    and* second = bool in
    let fact d = if pos then 6 + (k * 6) + d else 6 + (d * 6) + k in
    let pick older = if older then fact a else fact b in
    return
      (List.init 6 (fun d -> Rem (fact d))
      @ [
          Ins (fact a, l); Ins (fact b, l); Rem (pick first); Ins (pick first, l);
          Rem (pick second); Rem (pick (not second)); Ins (fact c, l);
        ]))

(* The candidate rows of [p(args)] in visit order, as argument lists,
   with the number of [on_candidate] calls and [catom_count]. *)
let churn_visits idx p args =
  let slot = function "x" -> 0 | _ -> 1 in
  let ca = Engine.Index.compile_atom idx ~slot (atom p args) in
  let benv = Array.make 2 (-1) in
  let st = Engine.Index.symtab idx in
  let visited = ref [] and candidates = ref 0 in
  ignore
    (Engine.Index.fold_catom idx ca ~benv
       ~on_candidate:(fun () -> incr candidates)
       ~on_fail:(fun () -> ())
       (fun _ ->
         let const = function
           | Const c -> c
           | Var x -> Engine.Symtab.extern st benv.(slot x)
         in
         visited := List.map (fun t -> Fmt.str "%a" Term.pp_const (const t)) args :: !visited;
         false)
       0);
  (List.rev !visited, !candidates, Engine.Index.catom_count idx ca ~benv)

let churn_agrees ops =
  let idx = Engine.Index.create () in
  (* the model: live facts (universe index, level), oldest first, and the
     predicates in the order the store first interned them *)
  let model = ref [] and preds = ref [] in
  let step op =
    match op with
    | Ins (i, l) ->
        let p, _ = churn_fact i in
        if not (List.mem p !preds) then preds := !preds @ [ p ];
        let fresh = not (List.mem_assoc i !model) in
        if fresh then model := !model @ [ (i, l) ];
        Engine.Index.insert ~level:l (churn_to_fact i) idx = fresh
    | Rem i ->
        let present = List.mem_assoc i !model in
        model := List.remove_assoc i !model;
        Engine.Index.remove (churn_to_fact i) idx = present
    | Lvl (i, l) ->
        if List.mem_assoc i !model then begin
          model := List.map (fun (j, l') -> if j = i then (j, l) else (j, l')) !model;
          Engine.Index.set_level idx (churn_to_fact i) l
        end;
        true
  in
  let agrees () =
    let expected_order =
      List.concat_map
        (fun p ->
          List.filter_map
            (fun (i, l) -> if fst (churn_fact i) = p then Some (churn_to_fact i, l) else None)
            !model)
        !preds
    in
    let facts_agree =
      List.equal
        (fun (f, l) (f', l') -> Fact.equal f f' && l = l')
        expected_order (Engine.Index.ordered_facts idx)
      && Engine.Index.size idx = List.length !model
      && List.for_all
           (fun i -> Engine.Index.mem (churn_to_fact i) idx = List.mem_assoc i !model)
           (List.init churn_universe Fun.id)
    in
    (* newest first, restricted to the rows of [p] matching [keep] *)
    let expected p keep =
      List.rev
        (List.filter_map
           (fun (i, _) ->
             let p', args = churn_fact i in
             if p' = p && keep args then Some args else None)
           !model)
    in
    let pattern_agrees p args keep =
      let rows = expected p keep in
      let visited, candidates, count = churn_visits idx p args in
      visited = rows && candidates = List.length rows && count = List.length rows
    in
    let c k = Term.const k in
    facts_agree
    && pattern_agrees "P" [ v "x" ] (fun _ -> true)
    && pattern_agrees "R" [ v "x"; v "y" ] (fun _ -> true)
    && Array.for_all
         (fun k ->
           pattern_agrees "P" [ c k ] (fun a -> a = [ k ])
           && pattern_agrees "R" [ c k; v "y" ] (fun a -> List.hd a = k)
           && pattern_agrees "R" [ v "x"; c k ] (fun a -> List.nth a 1 = k))
         churn_consts
  in
  List.for_all (fun op -> step op && agrees ()) ops

let prop_index_churn =
  QCheck.Test.make ~name:"Index churn agrees with a list model" ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_churn_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(
         map List.concat
           (list_size (int_range 40 300)
              (frequency
                 [
                   (12, map (fun op -> [ op ]) gen_churn_op);
                   (1, gen_transition_walk);
                 ]))))
    churn_agrees

(* The membership table against a Hashtbl model. The universe spans a
   nullary predicate, one predicate at two arities and two predicates
   over the same cells, so a probe must tell facts apart by predicate,
   arity and cells, not by hash alone. Fill bursts drive the table from
   its initial 16 slots through several doublings up to 3/4 full, where
   probe runs are long; removals, singly and in bursts, then land in the
   middle of those runs and shift their tails back. After every
   operation [mem_key], [handle] (with [handle_key] and [handle_level]),
   [key_level] and [size] must agree with the model for every fact of
   the universe. *)
type member_op = M_ins of int * int | M_rem of int

let member_consts = Array.init 12 (Printf.sprintf "k%d")

let member_universe =
  let c = member_consts and n = Array.length member_consts in
  Array.of_list
    ((fact "N" [] :: List.init n (fun i -> fact "P" [ c.(i) ]))
    @ List.init n (fun i -> fact "R" [ c.(i) ])
    @ List.concat_map
        (fun p -> List.init (n * n) (fun i -> fact p [ c.(i / n); c.(i mod n) ]))
        [ "R"; "S" ]
    @ List.init 216 (fun i -> fact "T" [ c.(i / 36); c.(i / 6 mod 6); c.(i mod 6) ]))

let pp_member_op = function
  | M_ins (i, l) -> Printf.sprintf "ins %d@%d" i l
  | M_rem i -> Printf.sprintf "rem %d" i

let gen_member_ops =
  QCheck.Gen.(
    let f = int_bound (Array.length member_universe - 1) and l = int_bound 5 in
    let ins = map2 (fun i l -> M_ins (i, l)) f l and rem = map (fun i -> M_rem i) f in
    map List.concat
      (list_size (int_range 4 12)
         (frequency
            [
              (3, list_size (int_range 100 400) ins);
              (2, list_size (int_range 50 250) rem);
              (3, list_size (int_range 20 120) (frequency [ (1, ins); (1, rem) ]));
            ])))

let members_agree ops =
  let idx = Engine.Index.create () in
  let keys = Array.map (Engine.Index.intern idx) member_universe in
  let model = Hashtbl.create 64 in
  let step = function
    | M_ins (i, l) ->
        let fresh = not (Hashtbl.mem model i) in
        if fresh then Hashtbl.replace model i l;
        Engine.Index.insert ~level:l member_universe.(i) idx = fresh
    | M_rem i ->
        let present = Hashtbl.mem model i in
        Hashtbl.remove model i;
        Engine.Index.remove_key keys.(i) idx = present
  in
  let agrees i key =
    let h = Engine.Index.handle idx key in
    match Hashtbl.find_opt model i with
    | None ->
        h = -1
        && (not (Engine.Index.mem_key key idx))
        && Engine.Index.key_level idx key = -1
    | Some l ->
        h >= 0
        && Engine.Index.handle_key idx h = key
        && Engine.Index.handle_level idx h = l
        && Engine.Index.mem_key key idx
        && Engine.Index.key_level idx key = l
  in
  let rec all_agree i = i < 0 || (agrees i keys.(i) && all_agree (i - 1)) in
  List.for_all
    (fun op ->
      step op
      && Engine.Index.size idx = Hashtbl.length model
      && all_agree (Array.length keys - 1))
    ops

let prop_members =
  QCheck.Test.make ~name:"membership table agrees with a Hashtbl model" ~count:10
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_member_op ops))
       ~shrink:QCheck.Shrink.list gen_member_ops)
    members_agree

(* A repeated insert/remove cycle over the whole universe reuses the
   freed rows and emptied vectors: the capacity after the first cycle is
   the capacity after every later one. *)
let test_index_churn_capacity () =
  let idx = Engine.Index.create () in
  let facts = List.init churn_universe churn_to_fact in
  let cycle () =
    List.iter (fun f -> ignore (Engine.Index.insert f idx)) facts;
    List.iteri
      (fun i f -> if i mod 3 = 1 then check "removed" true (Engine.Index.remove f idx))
      facts;
    List.iter (fun f -> ignore (Engine.Index.insert f idx)) facts;
    List.iter (fun f -> check "removed" true (Engine.Index.remove f idx)) facts
  in
  cycle ();
  let cap = Engine.Index.capacity_words idx in
  for _ = 1 to 20 do
    cycle ()
  done;
  check_int "capacity unchanged by repeated cycles" cap
    (Engine.Index.capacity_words idx);
  check_int "empty" 0 (Engine.Index.size idx)

(* A singleton posting lives in its posting table, so only its
   promotion to a vector is counted by capacity_words, and demoting it
   gives that vector back: the capacity after one promote-demote cycle
   is the capacity after 21. *)
let test_index_promote_demote_capacity () =
  let idx = Engine.Index.create () in
  let rows () =
    Engine.Joiner.fold ~counters:(Engine.Joiner.counters idx)
      [ atom "R" [ Term.const "a"; v "y" ] ]
      idx
      (fun _ n -> n + 1)
      0
  in
  check "inline singleton" true (Engine.Index.insert (fact "R" [ "a"; "b" ]) idx);
  let single = Engine.Index.capacity_words idx in
  let cycle () =
    check "promoted" true (Engine.Index.insert (fact "R" [ "a"; "c" ]) idx);
    check_int "two rows" 2 (rows ());
    check "vector counted" true (Engine.Index.capacity_words idx > single);
    check "demoted" true (Engine.Index.remove (fact "R" [ "a"; "c" ]) idx);
    check_int "one row" 1 (rows ())
  in
  cycle ();
  let cap = Engine.Index.capacity_words idx in
  for _ = 1 to 20 do
    cycle ()
  done;
  check_int "capacity after 21 cycles is that after 1" cap
    (Engine.Index.capacity_words idx)

let test_delta_restriction () =
  (* with a delta pivot, only matches using a delta fact for the pivot *)
  let inst =
    Instance.of_facts [ fact "A" [ "a" ]; fact "A" [ "b" ]; fact "S" [ "a"; "b" ] ]
  in
  let idx = Engine.Index.of_instance inst in
  let body = [ atom "A" [ v "x" ]; atom "S" [ v "x"; v "y" ] ] in
  check_int "unrestricted: one hom" 1
    (Engine.Joiner.fold ~counters:(Engine.Joiner.counters idx) body idx
       (fun _ n -> n + 1)
       0);
  let slot x = if x = "x" then 0 else 1 in
  let pivot = Engine.Index.compile_atom idx ~slot (List.hd body) in
  let rest = [| Engine.Index.compile_atom idx ~slot (List.nth body 1) |] in
  let benv = Array.make 2 (-1) in
  let homs delta =
    let n = ref 0 and handles = Engine.Vec.create () in
    List.iter
      (fun f -> Engine.Vec.push handles (Engine.Index.handle idx (Engine.Index.intern idx f)))
      delta;
    Engine.Joiner.fold_delta idx ~counters:(Engine.Joiner.counters idx) ~pivot rest ~benv
      handles ~lo:0 ~hi:(Engine.Vec.length handles)
      (fun () -> incr n);
    !n
  in
  check_int "delta A(b): no hom" 0 (homs [ fact "A" [ "b" ] ]);
  check_int "delta A(a): one hom" 1 (homs [ fact "A" [ "a" ] ])

let test_stats_reported () =
  let sigma =
    [ tgd [ atom "S" [ v "x"; v "y" ]; atom "A" [ v "x" ] ] [ atom "B" [ v "x" ] ] ]
  in
  let db = Instance.of_facts [ fact "A" [ "a" ]; fact "S" [ "a"; "b" ] ] in
  let r = Chase.run sigma db in
  match Chase.engine_result r with
  | None -> Alcotest.fail "indexed run must report an engine result"
  | Some s ->
      check_int "one trigger" 1 s.Engine.Saturate.triggers_fired;
      check "probes counted" true (Engine.Index.probes (Chase.index r) > 0);
      check_int "one fact at level 1" 1 (List.hd s.Engine.Saturate.facts_per_level);
      check "complete outcome" true (Chase.outcome r = Obs.Budget.Complete);
      check "joiner candidates filed" true
        (Obs.Metrics.count
           (Engine.Index.metrics (Chase.index r))
           "joiner.candidates"
        > 0)

(* The saturation envelope on lubm-40, the linear-rule workload the
   server saturates: storage order, s-level census, trigger count and
   every index/joiner counter are pinned as literals, so a change to the
   firing path must reproduce the chase exactly; minor and major words
   per chased fact must stay inside a fixed envelope (~1.2x the measured
   22.8 minor / 4.8 major), so it only fails on a real allocation
   regression. The minor heap is flushed before the second reading so
   both counts are exact. *)
let test_saturation_envelope () =
  let sigma, db = Guarded_core.Workload.lubm ~universities:40 () in
  Term.reset_nulls ();
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let r = Chase.run sigma db in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  let idx = Chase.index r in
  let facts = float_of_int (Engine.Index.size idx) in
  let minor = (s1.Gc.minor_words -. s0.Gc.minor_words) /. facts in
  let major = (s1.Gc.major_words -. s0.Gc.major_words) /. facts in
  let digest =
    Engine.Index.ordered_facts idx
    |> List.map (fun (f, _) -> Fmt.str "%a" Fact.pp f)
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  Alcotest.(check string) "storage-order digest"
    "3f78fd1505c44d050a5e9287eaf80666" digest;
  Alcotest.(check (list int)) "s-level census" [ 1520; 1280; 880; 640 ]
    (Chase.facts_per_level r);
  check_int "triggers fired" 5440
    (match Chase.engine_result r with
    | Some s -> s.Engine.Saturate.triggers_fired
    | None -> -1);
  Alcotest.(check (list (pair string int)))
    "index and joiner counters"
    [
      ("index.duplicates", 1120);
      ("index.inserts", 6160);
      ("index.probes", 0);
      ("index.removes", 0);
      ("joiner.backtracks", 0);
      ("joiner.candidates", 5440);
    ]
    (List.filter
       (fun (n, _) ->
         String.starts_with ~prefix:"index." n
         || String.starts_with ~prefix:"joiner." n)
       (Obs.Metrics.counters (Engine.Index.metrics idx)));
  check
    (Fmt.str "minor words per chased fact within envelope (measured %.1f)"
       minor)
    true (minor < 27.5);
  check
    (Fmt.str "major words per chased fact within envelope (measured %.1f)"
       major)
    true (major < 5.8)

(* The load envelope: parsing a lubm-40 program text (its rules and
   1,840 base facts, predicates lowercased for the surface syntax) and
   filing its facts into a store with [Index.of_facts], in minor words
   per base fact, must stay inside ~1.2x the measured 100.7. The route
   before the load entry, a lexeme list, then [Parser.database]'s
   instance and [Index.of_instance], read 212.0. *)
let lubm_text universities =
  let sigma, db = Guarded_core.Workload.lubm ~universities () in
  let lower a = Atom.make (String.lowercase_ascii (Atom.pred a)) (Atom.args a) in
  Fmt.str "%a" Syntax.Pretty.pp_program
    {
      Syntax.Parser.schema = Schema.of_list [];
      tgds =
        List.map
          (fun t ->
            Tgds.Tgd.make
              ~body:(List.map lower (Tgds.Tgd.body t))
              ~head:(List.map lower (Tgds.Tgd.head t)))
          sigma;
      facts =
        List.map
          (fun f -> Fact.make (String.lowercase_ascii (Fact.pred f)) (Fact.args f))
          (Instance.facts db);
      queries = [];
    }

let test_load_envelope () =
  let text = lubm_text 40 in
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let p = Syntax.Parser.parse text in
  let idx = Engine.Index.of_facts p.Syntax.Parser.facts in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  check_int "base facts" 1840 (Engine.Index.size idx);
  check_int "rules" 10 (List.length p.Syntax.Parser.tgds);
  let minor =
    (s1.Gc.minor_words -. s0.Gc.minor_words) /. float_of_int (Engine.Index.size idx)
  in
  check
    (Fmt.str "minor words per base fact within envelope (measured %.1f)" minor)
    true (minor < 121.)

(* The probe-hit sequence of a saturation, one letter per hit: P =
   engine.pass, J = engine.join, I = engine.insert. Fault plans
   ([hit:N]) count these hits, so the sequence pins where every plan
   fires. The program has a two-atom body (a join past the pivot), an
   existential head and, under the restricted policy, a dismissal check
   per collected trigger. *)
let probe_sequence policy =
  let sigma =
    [
      tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
      tgd [ atom "S" [ v "x"; v "y" ]; atom "A" [ v "x" ] ] [ atom "B" [ v "y" ] ];
      tgd [ atom "B" [ v "x" ] ] [ atom "C" [ v "x" ] ];
    ]
  in
  let db =
    Instance.of_facts [ fact "A" [ "a" ]; fact "A" [ "b" ]; fact "S" [ "a"; "c" ] ]
  in
  let buf = Buffer.create 64 in
  Obs.Probe.install (fun point ->
      Buffer.add_char buf
        (match point with
        | "engine.pass" -> 'P'
        | "engine.join" -> 'J'
        | "engine.insert" -> 'I'
        | _ -> '?'));
  Fun.protect ~finally:Obs.Probe.clear (fun () ->
      ignore (Chase.run ~policy ~max_level:4 sigma db));
  Buffer.contents buf

let test_probe_sequence () =
  Alcotest.(check string) "oblivious" "IIIPJJJIIIPJJIIIPJIIP"
    (probe_sequence Chase.Oblivious);
  Alcotest.(check string) "restricted" "IIIPJJJJJJIIPJJJJIIPJJIP"
    (probe_sequence Chase.Restricted)

(* The matcher behind Ground_closure and every certain-answer check
   (Joiner.fold, Joiner.entails_cq), pinned on one fixed chased
   instance: match counts, verdicts, the exact joiner.candidates /
   joiner.backtracks / index.probes deltas, and one engine.join probe
   hit per search. The goldens never see the ground closure's private
   index, so this pin is what keeps that search node-for-node stable. *)
let test_joiner_counter_pin () =
  let sigma, db = Guarded_core.Workload.lubm ~universities:2 () in
  Term.reset_nulls ();
  let idx = Chase.index (Chase.run sigma db) in
  let m = Engine.Index.metrics idx in
  let counters () =
    List.map (Obs.Metrics.count m)
      [ "joiner.candidates"; "joiner.backtracks"; "index.probes" ]
  in
  let c = Term.const in
  let bodies =
    [
      [ atom "MemberOf" [ v "x"; v "d" ]; atom "Student" [ v "x" ];
        atom "Takes" [ v "x"; v "c" ] ];
      [ atom "Teaches" [ v "p"; v "c" ]; atom "Takes" [ v "s"; v "c" ];
        atom "MemberOf" [ v "s"; v "d" ]; atom "MemberOf" [ v "p"; v "d" ] ];
      [ atom "AdvisedBy" [ v "s"; v "a" ]; atom "Faculty" [ v "a" ] ];
      [ atom "MemberOf" [ v "x"; c "dept_1_0" ]; atom "Prof" [ v "x" ] ];
      [ atom "MemberOf" [ v "x"; v "x" ] ];
      [ atom "MemberOf" [ v "x"; c "nowhere" ] ];
    ]
  in
  let q =
    Cq.make ~answer:[ "s"; "d" ]
      [ atom "Takes" [ v "s"; v "c" ]; atom "Teaches" [ v "p"; v "c" ];
        atom "MemberOf" [ v "p"; v "d" ] ]
  in
  let tuples =
    [
      [ "student_0_0_0"; "dept_0_0" ]; [ "student_0_0_1"; "dept_0_0" ];
      [ "student_1_1_2"; "dept_1_1" ]; [ "student_1_1_2"; "dept_0_0" ];
      [ "prof_0_0_0"; "dept_0_0" ]; [ "nobody"; "dept_0_0" ];
    ]
  in
  let joins = ref 0 in
  Obs.Probe.install (fun p -> if p = "engine.join" then incr joins);
  (* run [f] over [xs]: its results, the counter deltas and the
     engine.join hits it caused *)
  let measure f xs =
    let c0 = counters () and j0 = !joins in
    let rs = List.map f xs in
    (rs, List.map2 ( - ) (counters ()) c0, !joins - j0)
  in
  let (homs, fold_deltas, fold_joins), (verdicts, entail_deltas, entail_joins) =
    Fun.protect ~finally:Obs.Probe.clear (fun () ->
        let folds =
          measure
            (fun body ->
              Engine.Joiner.fold ~counters:(Engine.Joiner.counters idx) body idx
                (fun _ n -> n + 1)
                0)
            bodies
        in
        ( folds,
          measure
            (fun t -> Engine.Joiner.entails_cq idx q (List.map Term.named t))
            tuples ))
  in
  Alcotest.(check (list int)) "matches per body" [ 32; 12; 20; 3; 0; 0 ] homs;
  Alcotest.(check (list int))
    "fold: joiner.candidates / joiner.backtracks / index.probes" [ 207; 32; 114 ]
    fold_deltas;
  check_int "fold: one engine.join hit per call" (List.length bodies) fold_joins;
  Alcotest.(check (list bool)) "entailment verdicts"
    [ true; false; true; false; false; false ] verdicts;
  Alcotest.(check (list int))
    "entails_cq: joiner.candidates / joiner.backtracks / index.probes"
    [ 13; 1; 16 ] entail_deltas;
  check_int "entails_cq: one engine.join hit per call" (List.length tuples)
    entail_joins

(* Corners of candidate-answer entailment: an answer variable that
   occurs in no atom accepts any constant (even one the store has never
   seen) iff the body holds; an unknown constant bound to an atom
   variable never matches; a tuple of the wrong arity is refused; a
   Boolean query entails the empty tuple iff it holds. *)
let test_entails_cq_corners () =
  let idx =
    Engine.Index.of_instance
      (Instance.of_facts [ fact "A" [ "a" ]; fact "S" [ "a"; "b" ] ])
  in
  let entails q t = Engine.Joiner.entails_cq idx q (List.map Term.named t) in
  let free = Cq.make ~answer:[ "x"; "z" ] [ atom "S" [ v "x"; v "y" ] ] in
  check "free answer variable, known constant" true (entails free [ "a"; "b" ]);
  check "free answer variable, unseen constant" true (entails free [ "a"; "zz" ]);
  check "free answer variable, body fails" false (entails free [ "b"; "zz" ]);
  let empty_body = Cq.make ~answer:[ "z" ] [ atom "T" [ v "x"; v "y" ] ] in
  check "free answer variable, body never holds" false
    (entails empty_body [ "a" ]);
  let q = Cq.make ~answer:[ "x" ] [ atom "A" [ v "x" ] ] in
  check "known constant" true (entails q [ "a" ]);
  check "unknown constant on an atom variable" false (entails q [ "zz" ]);
  check "arity too short" false (entails q []);
  check "arity too long" false (entails q [ "a"; "a" ]);
  let boolean = Cq.make [ atom "S" [ v "x"; v "y" ]; atom "A" [ v "x" ] ] in
  check "boolean query holds" true (entails boolean []);
  check "boolean query, non-empty tuple" false (entails boolean [ "a" ]);
  check "boolean query fails" false
    (entails (Cq.make [ atom "S" [ v "x"; v "x" ] ]) []);
  check "ucq: some disjunct entails" true
    (Engine.Joiner.entails_ucq idx
       (Ucq.make [ Cq.make ~answer:[ "x" ] [ atom "B" [ v "x" ] ]; q ])
       [ Term.named "a" ])

let qcheck_tests =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 21 |]) prop_index_churn
  :: QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |]) prop_members
  :: List.map QCheck_alcotest.to_alcotest
    [
      prop_levels_oblivious;
      prop_levels_restricted;
      prop_certain_agrees;
      prop_resaturate_restricted_noop;
      prop_resaturate_oblivious_full_noop;
      prop_budget_level_prefix;
      prop_joiner_matches_fold_homs;
      prop_answer_sets_agree;
      prop_enumerate_matches_generate_and_test;
      prop_enumerate_budget_prefix;
      prop_index_roundtrip;
      prop_trigger_handles;
    ]

let () =
  Alcotest.run "engine"
    [
      ( "units",
        [
          Alcotest.test_case "index postings" `Quick test_index_postings;
          Alcotest.test_case "delta restriction" `Quick test_delta_restriction;
          Alcotest.test_case "index level column" `Quick test_level_column;
          Alcotest.test_case "index churn capacity" `Quick
            test_index_churn_capacity;
          Alcotest.test_case "index promote-demote capacity" `Quick
            test_index_promote_demote_capacity;
          Alcotest.test_case "saturation stats" `Quick test_stats_reported;
          Alcotest.test_case "enumerate corners" `Quick test_enumerate_corners;
          Alcotest.test_case "probe sequence" `Quick test_probe_sequence;
          Alcotest.test_case "joiner counter pin" `Quick
            test_joiner_counter_pin;
          Alcotest.test_case "entails_cq corners" `Quick
            test_entails_cq_corners;
          Alcotest.test_case "load envelope" `Quick test_load_envelope;
          Alcotest.test_case "saturation envelope" `Quick
            test_saturation_envelope;
        ] );
      ("properties", qcheck_tests);
    ]
