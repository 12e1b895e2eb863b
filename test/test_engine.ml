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
          = sorted_homs (fun f acc -> Engine.Joiner.fold body idx f acc))
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
      let via_joiner = Engine.Joiner.answers_cq idx cq in
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

(* The seed implementation of Omq_eval.answers, kept verbatim as the
   oracle: entailment-test every |adom|^arity candidate tuple over the
   chased index. *)
let oracle_answers idx db q =
  let dom = Term.ConstSet.elements (Instance.dom db) in
  let rec tuples n =
    if n = 0 then [ [] ]
    else
      List.concat_map (fun t -> List.map (fun c -> c :: t) dom) (tuples (n - 1))
  in
  List.filter (fun c -> Engine.Joiner.entails_ucq idx q c)
    (tuples (Ucq.arity q))
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

let test_index_postings () =
  let idx =
    Engine.Index.of_instance
      (Instance.of_facts
         [ fact "S" [ "a"; "b" ]; fact "S" [ "a"; "c" ]; fact "S" [ "b"; "c" ] ])
  in
  check_int "bucket (S,0,a)" 2 (Engine.Index.count_at idx "S" 0 (Named "a"));
  check_int "bucket (S,1,c)" 2 (Engine.Index.count_at idx "S" 1 (Named "c"));
  check_int "relation size" 3 (Engine.Index.count_of idx "S");
  check "duplicate insert rejected" false
    (Engine.Index.insert (fact "S" [ "a"; "b" ]) idx);
  check_int "size unchanged" 3 (Engine.Index.size idx)

let test_delta_restriction () =
  (* with ~delta, only matches using a delta fact for the first atom *)
  let inst =
    Instance.of_facts [ fact "A" [ "a" ]; fact "A" [ "b" ]; fact "S" [ "a"; "b" ] ]
  in
  let idx = Engine.Index.of_instance inst in
  let body = [ atom "A" [ v "x" ]; atom "S" [ v "x"; v "y" ] ] in
  let all = Engine.Joiner.all body idx in
  check_int "unrestricted: one hom" 1 (List.length all);
  let none =
    Engine.Joiner.fold ~delta:[ fact "A" [ "b" ] ] body idx
      (fun _ n -> n + 1)
      0
  in
  check_int "delta A(b): no hom" 0 none;
  let one =
    Engine.Joiner.fold ~delta:[ fact "A" [ "a" ] ] body idx
      (fun _ n -> n + 1)
      0
  in
  check_int "delta A(a): one hom" 1 one

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

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
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
    ]

let () =
  Alcotest.run "engine"
    [
      ( "units",
        [
          Alcotest.test_case "index postings" `Quick test_index_postings;
          Alcotest.test_case "delta restriction" `Quick test_delta_restriction;
          Alcotest.test_case "saturation stats" `Quick test_stats_reported;
          Alcotest.test_case "enumerate corners" `Quick test_enumerate_corners;
        ] );
      ("properties", qcheck_tests);
    ]
