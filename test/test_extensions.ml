(* Extended coverage: the Theorem D.1 rewriting pipeline, workload
   generators, chase universality (Proposition 2.2), homomorphism-ordering
   ablation, and randomized cross-validation of the guarded engines. *)

open Relational
open Relational.Term
open Guarded_core
module Tgd = Tgds.Tgd

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let v = Term.var
let atom p args = Atom.make p args
let fact p args = Fact.make p (List.map (fun s -> Named s) args)
let tgd body head = Tgd.make ~body ~head
let bool_q atoms = Ucq.of_cq (Cq.make atoms)

(* ------------------------------------------------------------------ *)
(* Guarded_rewrite: the Theorem D.1 composition                         *)
(* ------------------------------------------------------------------ *)

let test_guarded_rewrite_simple () =
  let sigma =
    [
      tgd [ atom "P" [ v "x" ] ] [ atom "R" [ v "x"; v "z" ] ];
      tgd [ atom "R" [ v "x"; v "y" ] ] [ atom "Q" [ v "x" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "P" [ "a" ] ] in
  let verdict, exact = Guarded_rewrite.holds sigma db (bool_q [ atom "Q" [ v "x" ] ]) in
  check "Q certain via two-stage rewriting" true verdict;
  check "exact" true exact;
  let no, _ = Guarded_rewrite.holds sigma db (bool_q [ atom "Z" [ v "x" ] ]) in
  check "absent predicate" false no

let test_guarded_rewrite_agrees_with_chase () =
  let sigma = Workload.university_ontology () in
  let db = Instance.of_facts [ fact "Prof" [ "ada" ]; fact "Course" [ "ml" ] ] in
  let queries =
    [
      bool_q [ atom "Dept" [ v "d" ] ];
      bool_q [ atom "Teaches" [ v "x"; v "c" ]; atom "Course" [ v "c" ] ];
      bool_q [ atom "Mgr" [ v "m" ] ];
      bool_q [ atom "Faculty" [ v "x" ]; atom "Prof" [ v "x" ] ];
    ]
  in
  List.iter
    (fun q ->
      let via_chase, sat = Tgds.Chase.certain ~max_level:8 sigma db q [] in
      check "chase saturated" true sat;
      let via_rw, exact = Guarded_rewrite.holds sigma db q in
      check "rewriting exact" true exact;
      check "pipeline agrees with chase" true (via_chase = via_rw))
    queries

(* ------------------------------------------------------------------ *)
(* Workload generators                                                  *)
(* ------------------------------------------------------------------ *)

let test_workload_queries () =
  check_int "path tw" 1 (Cq.treewidth (Workload.path_cq 5));
  check_int "grid 3x3 tw" 3 (Cq.treewidth (Workload.grid_cq 3 3));
  check_int "grid 2x4 tw" 2 (Cq.treewidth (Workload.grid_cq 2 4));
  check_int "clique-4 query tw" 3 (Cq.treewidth (Workload.clique_cq 4));
  check_int "star tw" 1 (Cq.treewidth (Workload.star_cq 4));
  check_int "path atoms" 5 (List.length (Cq.atoms (Workload.path_cq 5)));
  check_int "clique-4 atoms" 6 (List.length (Cq.atoms (Workload.clique_cq 4)))

let test_workload_dbs_match_queries () =
  check "grid query holds in its grid db" true
    (Cq.holds (Workload.grid_db 4 4) (Workload.grid_cq 4 4));
  check "bigger grid query does not" false
    (Cq.holds (Workload.grid_db 3 3) (Workload.grid_cq 4 4));
  check "path query in path db" true
    (Cq.holds (Workload.path_db 10) (Workload.path_cq 10));
  check "clique query in clique graph db" true
    (let db =
       Instance.of_facts
         (List.concat_map
            (fun i ->
              List.filter_map
                (fun j ->
                  if i <> j then
                    Some (fact "E" [ "v" ^ string_of_int i; "v" ^ string_of_int j ])
                  else None)
                [ 0; 1; 2 ])
            [ 0; 1; 2 ])
     in
     Cq.holds db (Workload.clique_cq 3))

let test_workload_graphs () =
  let g = Workload.planted_clique ~n:10 ~k:4 ~p:0.1 ~seed:1 in
  check "planted clique present" true (Qgraph.Graph.has_clique g 4);
  let g1 = Workload.random_graph ~n:10 ~p:0.3 ~seed:5 in
  let g2 = Workload.random_graph ~n:10 ~p:0.3 ~seed:5 in
  check "deterministic in seed" true
    (Qgraph.Graph.edges g1 = Qgraph.Graph.edges g2);
  let g3 = Workload.random_graph ~n:10 ~p:0.3 ~seed:6 in
  check "different seeds differ" true
    (Qgraph.Graph.edges g1 <> Qgraph.Graph.edges g3)

let test_workload_tgd_classes () =
  check "linear chain is linear" true (Tgd.all_linear (Workload.linear_chain ~depth:3));
  check "guarded full chain is guarded" true
    (Tgd.all_guarded (Workload.guarded_full_chain ~depth:3));
  check "guarded full chain is full" true
    (Tgd.all_full (Workload.guarded_full_chain ~depth:3));
  check "university guarded" true (Tgd.all_guarded (Workload.university_ontology ()));
  check "manager guarded" true (Tgd.all_guarded (Workload.manager_ontology ()));
  check "referential linear" true (Tgd.all_linear (Workload.referential_constraints ()))

(* ------------------------------------------------------------------ *)
(* Proposition 2.2: universality of the chase                           *)
(* ------------------------------------------------------------------ *)

let gen_guarded_sigma =
  QCheck.Gen.(
    let gen_tgd =
      let* b = int_range 0 4 in
      match b with
      | 0 -> return (tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ])
      | 1 -> return (tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "A" [ v "y" ] ])
      | 2 ->
          return
            (tgd
               [ atom "S" [ v "x"; v "y" ]; atom "A" [ v "x" ] ]
               [ atom "B" [ v "x" ] ])
      | 3 -> return (tgd [ atom "B" [ v "x" ] ] [ atom "S" [ v "x"; v "z" ] ])
      | _ -> return (tgd [ atom "S" [ v "x"; v "x" ] ] [ atom "B" [ v "x" ] ])
    in
    list_size (int_range 1 3) gen_tgd)

let gen_db =
  QCheck.Gen.(
    let consts = [ "a"; "b" ] in
    let gc = map (List.nth consts) (int_range 0 1) in
    let gen_fact =
      let* p = int_range 0 2 in
      match p with
      | 0 ->
          let* a = gc in
          return (fact "A" [ a ])
      | 1 ->
          let* a = gc in
          return (fact "B" [ a ])
      | _ ->
          let* a = gc and* b = gc in
          return (fact "S" [ a; b ])
    in
    map Instance.of_facts (list_size (int_range 1 4) gen_fact))

let arb_sigma_db =
  QCheck.make
    ~print:(fun (s, db) ->
      Fmt.str "Σ=%a D=%a" (Fmt.list Tgd.pp) s Instance.pp db)
    QCheck.Gen.(pair gen_guarded_sigma gen_db)

let prop_chase_universal =
  QCheck.Test.make ~name:"chase maps into every model fixing dom(D) (Prop 2.2)"
    ~count:60 arb_sigma_db (fun (sigma, db) ->
      let r = Tgds.Chase.run ~max_level:6 ~max_facts:2000 sigma db in
      if not (Tgds.Chase.saturated r) then true
      else
        (* the finite witness is a model of D and Σ *)
        match Finite_witness.build ~n:2 sigma db with
        | m ->
            let fixed =
              ConstSet.fold
                (fun c acc -> ConstMap.add c c acc)
                (Instance.dom db) ConstMap.empty
            in
            Homomorphism.maps_to ~fixed (Tgds.Chase.instance r) m
        | exception Failure _ -> true)

let prop_ground_closure_is_chase_down =
  QCheck.Test.make
    ~name:"ground closure = ground part of the saturating chase" ~count:60
    arb_sigma_db (fun (sigma, db) ->
      let r = Tgds.Chase.run ~max_level:8 ~max_facts:4000 sigma db in
      if not (Tgds.Chase.saturated r) then
        Instance.subset (Tgds.Ground_closure.compute sigma db) (Tgds.Chase.instance r)
      else
        Instance.equal
          (Tgds.Ground_closure.compute sigma db)
          (Tgds.Chase.ground_part r))

let prop_witness_is_model =
  QCheck.Test.make ~name:"finite witness is always a finite model" ~count:40
    arb_sigma_db (fun (sigma, db) ->
      match Finite_witness.build ~n:2 sigma db with
      | m -> Finite_witness.verify sigma db m
      | exception Failure _ -> true)

let prop_linearize_agrees =
  QCheck.Test.make
    ~name:"linearization agrees with the chase on atomic queries" ~count:30
    arb_sigma_db (fun (sigma, db) ->
      let r = Tgds.Chase.run ~max_level:7 ~max_facts:3000 sigma db in
      if not (Tgds.Chase.saturated r) then true
      else
        List.for_all
          (fun q ->
            let direct = Ucq.holds (Tgds.Chase.instance r) q in
            let { Omq_eval.holds = via; exact } =
              Omq_eval.certain ~fpt:true ~max_level:10
                (Omq.make ~data_schema:(Instance.schema db) ~ontology:sigma ~query:q)
                db []
            in
            (not exact) || direct = via)
          [
            bool_q [ atom "A" [ v "u" ] ];
            bool_q [ atom "B" [ v "u" ] ];
            bool_q [ atom "S" [ v "u"; v "w" ] ];
            bool_q [ atom "S" [ v "u"; v "w" ]; atom "B" [ v "u" ] ];
          ])

(* ------------------------------------------------------------------ *)
(* Ordering ablation: static vs dynamic atom selection                  *)
(* ------------------------------------------------------------------ *)

let test_ordering_ablation_same_answers () =
  let db = Workload.grid_db 4 4 in
  let q = Workload.grid_cq 3 3 in
  let dynamic = Homomorphism.exists (Cq.atoms q) db in
  let static =
    Option.is_some
      (try
         Homomorphism.fold_homs ~ordering:`Static (Cq.atoms q) db
           (fun b _ -> Some b)
           None
       with Not_found -> None)
  in
  check "static and dynamic agree" true (dynamic = static)

let prop_ordering_irrelevant_for_semantics =
  QCheck.Test.make ~name:"atom ordering does not change satisfiability"
    ~count:80
    (QCheck.make
       ~print:(fun (q, db) -> Fmt.str "%a over %a" Cq.pp q Instance.pp db)
       QCheck.Gen.(
         pair
           (let vars = [ "x"; "y"; "z" ] in
            let gv = map (List.nth vars) (int_range 0 2) in
            let gen_atom =
              let* a = gv and* b = gv in
              return (atom "S" [ v a; v b ])
            in
            map Cq.make (list_size (int_range 1 4) gen_atom))
           gen_db))
    (fun (q, db) ->
      let dyn = Homomorphism.exists (Cq.atoms q) db in
      let sta =
        Homomorphism.fold_homs ~ordering:`Static (Cq.atoms q) db
          (fun _ _ -> true)
          false
      in
      dyn = sta)

(* ------------------------------------------------------------------ *)
(* Schema module coverage                                               *)
(* ------------------------------------------------------------------ *)

let test_schema_ops () =
  let s1 = Schema.of_list [ ("a", 1); ("b", 2) ] in
  let s2 = Schema.of_list [ ("b", 2); ("c", 3) ] in
  check_int "union size" 3 (Schema.cardinal (Schema.union s1 s2));
  check_int "ar" 3 (Schema.ar (Schema.union s1 s2));
  check "subset" true (Schema.subset s1 (Schema.union s1 s2));
  check "not subset" false (Schema.subset s2 s1);
  check_int "diff" 1 (Schema.cardinal (Schema.diff s1 s2));
  check "arity conflict rejected" true
    (try
       ignore (Schema.union s1 (Schema.of_list [ ("a", 2) ]));
       false
     with Invalid_argument _ -> true);
  check "of_list conflict rejected" true
    (try
       ignore (Schema.of_list [ ("a", 1); ("a", 2) ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Tw_eval.answers ≡ Cq.answers                                         *)
(* ------------------------------------------------------------------ *)

let prop_tw_answers_agree =
  QCheck.Test.make ~name:"Tw_eval.answers = Cq.answers" ~count:60
    (QCheck.make
       ~print:(fun (db : Instance.t) -> Fmt.str "%a" Instance.pp db)
       gen_db)
    (fun db ->
      let q =
        Cq.make ~answer:[ "x" ] [ atom "S" [ v "x"; v "y" ]; atom "A" [ v "y" ] ]
      in
      Tw_eval.answers db q = Cq.answers db q)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_chase_universal;
      prop_ground_closure_is_chase_down;
      prop_witness_is_model;
      prop_linearize_agrees;
      prop_ordering_irrelevant_for_semantics;
      prop_tw_answers_agree;
    ]

let () =
  Alcotest.run "extensions"
    [
      ( "guarded-rewrite",
        [
          Alcotest.test_case "simple" `Quick test_guarded_rewrite_simple;
          Alcotest.test_case "agrees with chase" `Quick test_guarded_rewrite_agrees_with_chase;
        ] );
      ( "workload",
        [
          Alcotest.test_case "query treewidths" `Quick test_workload_queries;
          Alcotest.test_case "dbs match queries" `Quick test_workload_dbs_match_queries;
          Alcotest.test_case "graphs" `Quick test_workload_graphs;
          Alcotest.test_case "tgd classes" `Quick test_workload_tgd_classes;
        ] );
      ( "ablation",
        [ Alcotest.test_case "orderings agree" `Quick test_ordering_ablation_same_answers ] );
      ("schema", [ Alcotest.test_case "operations" `Quick test_schema_ops ]);
      ("properties", qcheck_tests);
    ]
