(* Tests for the core library: bounded-treewidth evaluation, OMQ/CQS
   evaluation, Σ-containment, finite witnesses, approximations and the meta
   problem (Example 4.4), the Grohe constructions and the fpt-reductions. *)

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
(* Tw_eval (Proposition 2.1)                                            *)
(* ------------------------------------------------------------------ *)

let test_tw_eval_agrees_with_naive () =
  let db = Workload.path_db 6 in
  let q = Workload.path_cq 3 in
  check "path query holds" true (Tw_eval.holds db q);
  check "agrees with naive" true (Tw_eval.holds db q = Cq.holds db q);
  let q10 = Workload.path_cq 10 in
  check "too-long path fails" false (Tw_eval.holds db q10);
  (* with answer variables *)
  let qa =
    Cq.make ~answer:[ "x0" ]
      [ atom "E" [ v "x0"; v "x1" ]; atom "E" [ v "x1"; v "x2" ] ]
  in
  check "candidate accepted" true (Tw_eval.entails db qa [ Named "a0" ]);
  check "candidate rejected" false (Tw_eval.entails db qa [ Named "a5" ]);
  check_int "answers enumerated" 5 (List.length (Tw_eval.answers db qa))

let test_tw_eval_grid () =
  let db = Workload.grid_db 4 4 in
  let q = Workload.grid_cq 3 3 in
  check "grid in grid" true (Tw_eval.holds db q);
  let q5 = Workload.grid_cq 5 5 in
  check "bigger grid not in 4x4" false (Tw_eval.holds db q5)

let test_tw_eval_ground_and_constants () =
  let db = Instance.of_facts [ fact "R" [ "a"; "b" ] ] in
  let q_ground = Cq.make [ atom "R" [ Term.const "a"; Term.const "b" ] ] in
  check "ground query" true (Tw_eval.holds db q_ground);
  let q_bad = Cq.make [ atom "R" [ Term.const "b"; Term.const "a" ] ] in
  check "ground query false" false (Tw_eval.holds db q_bad)

(* qcheck: Tw_eval ≡ naive evaluation *)
let gen_cq_db =
  QCheck.Gen.(
    let vars = [ "x"; "y"; "z"; "u" ] in
    let gv = map (List.nth vars) (int_range 0 3) in
    let gen_atom =
      let* a = gv and* b = gv in
      map (fun p -> atom (if p = 0 then "E" else "F") [ v a; v b ]) (int_range 0 1)
    in
    let* atoms = list_size (int_range 1 4) gen_atom in
    let consts = [ "a"; "b"; "c" ] in
    let gc = map (List.nth consts) (int_range 0 2) in
    let gen_fact =
      let* a = gc and* b = gc in
      map (fun p -> fact (if p = 0 then "E" else "F") [ a; b ]) (int_range 0 1)
    in
    let* facts = list_size (int_range 0 7) gen_fact in
    return (Cq.make atoms, Instance.of_facts facts))

let prop_tw_eval_correct =
  QCheck.Test.make ~name:"Tw_eval agrees with naive evaluation" ~count:150
    (QCheck.make
       ~print:(fun (q, db) -> Fmt.str "%a over %a" Cq.pp q Instance.pp db)
       gen_cq_db)
    (fun (q, db) -> Tw_eval.holds db q = Cq.holds db q)

(* ------------------------------------------------------------------ *)
(* OMQ evaluation                                                       *)
(* ------------------------------------------------------------------ *)

let university_omq q =
  Omq.full_data_schema ~ontology:(Workload.university_ontology ()) ~query:q

let test_omq_eval_baseline () =
  let db = Instance.of_facts [ fact "Prof" [ "ada" ] ] in
  let q = bool_q [ atom "Dept" [ v "d" ] ] in
  let omq = university_omq q in
  let r = Omq_eval.certain omq db [] in
  check "dept certain" true r.Omq_eval.holds;
  check "exact" true r.Omq_eval.exact;
  let q2 = bool_q [ atom "Student" [ v "s" ] ] in
  let r2 = Omq_eval.certain (university_omq q2) db [] in
  check "student not certain" false r2.Omq_eval.holds

let test_omq_eval_fpt_agrees () =
  let db =
    Instance.of_facts [ fact "Prof" [ "ada" ]; fact "Course" [ "logic" ] ]
  in
  let queries =
    [
      bool_q [ atom "Dept" [ v "d" ] ];
      bool_q [ atom "Teaches" [ v "x"; v "c" ]; atom "OfferedBy" [ v "c"; v "d" ] ];
      bool_q [ atom "Faculty" [ v "x" ] ];
      bool_q [ atom "Prof" [ v "x" ]; atom "Dept" [ v "x" ] ];
    ]
  in
  List.iter
    (fun q ->
      let omq = university_omq q in
      let base = Omq_eval.certain omq db [] in
      let fpt = Omq_eval.certain_fpt omq db [] in
      check "baseline exact" true base.Omq_eval.exact;
      check "fpt agrees with baseline" true
        (base.Omq_eval.holds = fpt.Omq_eval.holds))
    queries

let test_omq_eval_infinite_chase () =
  (* manager ontology: infinite chase, answers via ground closure and
     bounded chase *)
  let sigma = Workload.manager_ontology () in
  let db = Instance.of_facts [ fact "Emp" [ "eve" ] ] in
  check "Managed(eve) certain (atomic, exact)" true
    (Omq_eval.certain_atomic sigma db (fact "Managed" [ "eve" ]));
  check "Managed(bob) not certain" false
    (Omq_eval.certain_atomic sigma db (fact "Managed" [ "bob" ]));
  let q = bool_q [ atom "ReportsTo" [ v "x"; v "m" ]; atom "Managed" [ v "m" ] ] in
  let omq = Omq.full_data_schema ~ontology:sigma ~query:q in
  let r = Omq_eval.certain ~max_level:5 omq db [] in
  check "certain despite infinite chase" true r.Omq_eval.holds

let test_omq_data_schema_enforced () =
  let omq =
    Omq.make
      ~data_schema:(Schema.of_list [ ("Prof", 1) ])
      ~ontology:(Workload.university_ontology ())
      ~query:(bool_q [ atom "Dept" [ v "d" ] ])
  in
  check "non-S database rejected" true
    (try
       ignore (Omq_eval.certain omq (Instance.of_facts [ fact "Dept" [ "d1" ] ]) []);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* CQS evaluation and semantic optimization                             *)
(* ------------------------------------------------------------------ *)

let test_cqs_eval_and_promise () =
  let constraints = Workload.referential_constraints () in
  let db =
    Instance.of_facts
      [
        fact "Customer" [ "c1" ];
        fact "Order" [ "o1"; "c1" ];
        fact "Line" [ "l1"; "o1" ];
      ]
  in
  let s =
    Cqs.make ~constraints
      ~query:(Ucq.of_cq (Cq.make ~answer:[ "l" ] [ atom "Line" [ v "l"; v "o" ] ]))
  in
  check "promise holds" true (Cqs.admissible s db);
  check "closed-world answer" true (Cqs_eval.eval s db [ Named "l1" ]);
  let bad = Instance.of_facts [ fact "Order" [ "o9"; "ghost" ] ] in
  check "promise violated detected" false (Cqs.admissible s bad)

let test_cqs_semantic_optimization () =
  (* Σ: Order(o,c) → Customer(c). The join with Customer is redundant on
     admissible databases. *)
  let constraints = Workload.referential_constraints () in
  let q =
    Cq.make ~answer:[ "o" ]
      [ atom "Order" [ v "o"; v "c" ]; atom "Customer" [ v "c" ] ]
  in
  let s = Cqs.make ~constraints ~query:(Ucq.of_cq q) in
  let s' = Cqs_eval.optimize s in
  let atoms' =
    List.concat_map Cq.atoms (Ucq.disjuncts (Cqs.query s'))
  in
  check_int "redundant join removed" 1 (List.length atoms');
  (* answers agree on admissible databases *)
  let db =
    Instance.of_facts
      [ fact "Customer" [ "c1" ]; fact "Order" [ "o1"; "c1" ]; fact "Customer" [ "c2" ] ]
  in
  check "optimized answers agree" true
    (Cqs_eval.answers s db = Cqs_eval.answers s' db)

(* ------------------------------------------------------------------ *)
(* Σ-containment (Proposition 4.5)                                      *)
(* ------------------------------------------------------------------ *)

let test_sigma_containment () =
  let sigma = [ tgd [ atom "R2" [ v "x" ] ] [ atom "R4" [ v "x" ] ] ] in
  let q1 = Cq.make [ atom "R2" [ v "x" ]; atom "R4" [ v "x" ] ] in
  let q2 = Cq.make [ atom "R2" [ v "x" ] ] in
  (* under Σ, R2 implies R4, so both directions hold *)
  check "q2 ⊆_Σ q1" true (Sigma_containment.cq_contained sigma q2 q1 = Holds);
  check "q1 ⊆_Σ q2" true (Sigma_containment.cq_contained sigma q1 q2 = Holds);
  (* without Σ, q2 ⊄ q1 *)
  check "without Σ fails" true (Sigma_containment.cq_contained [] q2 q1 = Fails)

let test_sigma_containment_infinite () =
  (* Σ with infinite chase; non-containment must be detected via the
     finite witness *)
  let sigma =
    [
      tgd [ atom "Emp" [ v "x" ] ] [ atom "RT" [ v "x"; v "m" ] ];
      tgd [ atom "RT" [ v "x"; v "m" ] ] [ atom "Emp" [ v "m" ] ];
    ]
  in
  let q1 = Cq.make [ atom "Emp" [ v "x" ] ] in
  let q_loop = Cq.make [ atom "RT" [ v "x"; v "x" ] ] in
  let q_chain = Cq.make [ atom "RT" [ v "x"; v "y" ]; atom "RT" [ v "y"; v "z" ] ] in
  check "chain certain" true (Sigma_containment.cq_contained sigma q1 q_chain = Holds);
  check "loop not entailed" true
    (Sigma_containment.cq_contained sigma q1 q_loop = Fails)

(* Prop 4.5's refutation path: the bounded chase of D[q₁] neither
   saturates nor matches q₂, so the verdict is read off the finite
   witness M(D[q₁],Σ,n) with n the variables of q₂'s disjunct. *)
let test_sigma_containment_witness_refutes () =
  let sigma = Workload.manager_ontology () in
  let p1 = Cq.make [ atom "Emp" [ v "x" ] ] in
  let q1 = Ucq.of_cq p1 in
  let rt x y = atom "ReportsTo" [ v x; v y ] in
  let cycle3 = Cq.make [ rt "x" "y"; rt "y" "z"; rt "z" "x" ] in
  let managed_loop = Cq.make [ rt "x" "x"; atom "Managed" [ v "x" ] ] in
  let r = Tgds.Chase.run ~max_level:8 ~max_facts:60_000 sigma (Cq.canonical_db p1) in
  check "bounded chase does not saturate" false (Tgds.Chase.saturated r);
  List.iter
    (fun (name, q2) ->
      check (name ^ ": bounded chase does not match") false
        (Ucq.holds (Tgds.Chase.instance r) q2);
      check (name ^ ": refuted on the witness") true
        (Sigma_containment.contained sigma q1 q2 = Fails))
    [
      ("self-report", bool_q [ rt "x" "x" ]);
      ("2-cycle", bool_q [ rt "x" "y"; rt "y" "x" ]);
      ("3-cycle", Ucq.of_cq cycle3);
      ("union of cycles", Ucq.make [ cycle3; managed_loop ]);
    ];
  (* a 4-step chain holds in the chase, beyond level 2, and in the
     witness's cycles: nothing refutes it and nothing proves it *)
  let chain4 = bool_q [ rt "a" "b"; rt "b" "c"; rt "c" "d"; rt "d" "e" ] in
  check "chain beyond the level bound: unknown" true
    (Sigma_containment.contained ~max_level:2 sigma q1 chain4 = Unknown);
  check "chain within the level bound: holds" true
    (Sigma_containment.contained sigma q1 chain4 = Holds)

let test_sigma_minimize () =
  let sigma = [ tgd [ atom "R2" [ v "x" ] ] [ atom "R4" [ v "x" ] ] ] in
  let q = Cq.make [ atom "R2" [ v "x" ]; atom "R4" [ v "x" ] ] in
  let m = Sigma_containment.minimize sigma q in
  check_int "one atom after minimization" 1 (List.length (Cq.atoms m));
  check "R2 kept" true (List.exists (fun a -> Atom.pred a = "R2") (Cq.atoms m))

(* ------------------------------------------------------------------ *)
(* Finite witnesses (Theorem 6.7)                                       *)
(* ------------------------------------------------------------------ *)

let test_finite_witness_model () =
  let sigma = Workload.manager_ontology () in
  let db = Instance.of_facts [ fact "Emp" [ "eve" ] ] in
  let m = Finite_witness.build ~n:3 sigma db in
  check "finite" true (Instance.size m < 1000);
  check "is a model" true (Finite_witness.verify sigma db m);
  (* query preservation for small queries, against the bounded chase *)
  let chase5 = Tgds.Chase.chase ~max_level:6 sigma db in
  let queries =
    [
      bool_q [ atom "ReportsTo" [ v "x"; v "x" ] ];
      bool_q [ atom "ReportsTo" [ v "x"; v "y" ]; atom "ReportsTo" [ v "y"; v "x" ] ];
      bool_q [ atom "ReportsTo" [ v "x"; v "y" ]; atom "Managed" [ v "y" ] ];
      bool_q [ atom "Emp" [ v "x" ]; atom "Managed" [ v "x" ] ];
    ]
  in
  List.iter
    (fun q ->
      check "witness answers like the chase" true
        (Ucq.holds m q = Ucq.holds chase5 q))
    queries

let test_finite_witness_no_spurious_loop () =
  let sigma =
    [
      tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "z" ] ];
      tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "S" [ v "y"; v "z" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "A" [ "a" ] ] in
  let m = Finite_witness.build ~n:2 sigma db in
  check "model" true (Finite_witness.verify sigma db m);
  check "no self loop" false (Ucq.holds m (bool_q [ atom "S" [ v "x"; v "x" ] ]));
  check "no 2-cycle" false
    (Ucq.holds m (bool_q [ atom "S" [ v "x"; v "y" ]; atom "S" [ v "y"; v "x" ] ]))

(* ------------------------------------------------------------------ *)
(* Approximation and the meta problem — Example 4.4                     *)
(* ------------------------------------------------------------------ *)

let example_4_4_query () =
  Cq.make
    [
      atom "P" [ v "x2"; v "x1" ];
      atom "P" [ v "x4"; v "x1" ];
      atom "P" [ v "x2"; v "x3" ];
      atom "P" [ v "x4"; v "x3" ];
      atom "R1" [ v "x1" ];
      atom "R2" [ v "x2" ];
      atom "R3" [ v "x3" ];
      atom "R4" [ v "x4" ];
    ]

let test_example_4_4 () =
  (* Q1 = (S, {R2(x) → R4(x)}, q) is uniformly UCQ1-equivalent although q
     itself is a core of treewidth 2 (§4.1). *)
  let sigma = [ tgd [ atom "R2" [ v "x" ] ] [ atom "R4" [ v "x" ] ] ] in
  let q = example_4_4_query () in
  check_int "q has treewidth 2" 2 (Cq.treewidth q);
  let s = Cqs.make ~constraints:sigma ~query:(Ucq.of_cq q) in
  let verdict, witness = Equivalence.cqs_uniformly_ucqk_equivalent 1 s in
  check "uniformly UCQ1-equivalent" true (verdict = Equivalence.Holds);
  (match witness with
  | Some sa -> check "witness in UCQ1" true (Cqs.in_ucqk 1 sa)
  | None -> Alcotest.fail "expected a witness");
  (* without the ontology the same query is NOT UCQ1-equivalent *)
  let s0 = Cqs.make ~constraints:[] ~query:(Ucq.of_cq q) in
  let verdict0, _ = Equivalence.cqs_uniformly_ucqk_equivalent 1 s0 in
  check "not equivalent without Σ" true (verdict0 = Equivalence.Fails);
  (* and it is (trivially) UCQ2-equivalent *)
  let verdict2, _ = Equivalence.cqs_uniformly_ucqk_equivalent 2 s0 in
  check "UCQ2-equivalent" true (verdict2 = Equivalence.Holds)

let test_semantic_ucq_treewidth () =
  let sigma = [ tgd [ atom "R2" [ v "x" ] ] [ atom "R4" [ v "x" ] ] ] in
  let s = Cqs.make ~constraints:sigma ~query:(Ucq.of_cq (example_4_4_query ())) in
  match Equivalence.semantic_ucq_treewidth s with
  | Some (k, _) -> check_int "semantic UCQ-treewidth is 1" 1 k
  | None -> Alcotest.fail "expected a semantic treewidth"

let test_omq_equivalence_via_cqs () =
  let sigma = [ tgd [ atom "R2" [ v "x" ] ] [ atom "R4" [ v "x" ] ] ] in
  let omq =
    Omq.full_data_schema ~ontology:sigma ~query:(Ucq.of_cq (example_4_4_query ()))
  in
  let verdict, _ = Equivalence.omq_ucqk_equivalent 1 omq in
  check "full-data-schema OMQ UCQ1-equivalent" true (verdict = Equivalence.Holds)

let test_grounding_approximation_small () =
  (* tiny instance of Definition C.6: q() :- R2(x), R4(x) with
     Σ = {R2(x) → R4(x)}: the grounding-based approximation at k=1 must be
     equivalent (specialization contracts nothing; grounding replaces the
     component by a guarded full CQ) *)
  let sigma = [ tgd [ atom "R2" [ v "x" ] ] [ atom "R4" [ v "x" ] ] ] in
  let q = Cq.make [ atom "R2" [ v "x" ]; atom "R4" [ v "x" ] ] in
  let omq = Omq.full_data_schema ~ontology:sigma ~query:(Ucq.of_cq q) in
  let verdict, witness = Equivalence.omq_grounding_equivalent 1 omq in
  check "grounding-based equivalence holds" true (verdict = Equivalence.Holds);
  match witness with
  | Some qa -> check "approximation within UCQ1" true (Omq.in_ucqk 1 qa)
  | None -> Alcotest.fail "expected grounding witness"

(* ------------------------------------------------------------------ *)
(* Unraveling                                                           *)
(* ------------------------------------------------------------------ *)

let test_guarded_unraveling () =
  let db =
    Instance.of_facts
      [ fact "E" [ "a"; "b" ]; fact "E" [ "b"; "c" ]; fact "E" [ "c"; "a" ] ]
  in
  let start = ConstSet.of_list [ Named "a"; Named "b" ] in
  let u = Unraveling.guarded ~depth:3 db start in
  check "maps back to db" true (Unraveling.verify db u);
  (* tree-shaped: treewidth ≤ ar - 1 = 1 *)
  check "treewidth ≤ 1" true (Instance.treewidth u.Unraveling.instance <= 1);
  (* the triangle query does not hold in the unraveling *)
  let triangle =
    bool_q
      [ atom "E" [ v "x"; v "y" ]; atom "E" [ v "y"; v "z" ]; atom "E" [ v "z"; v "x" ] ]
  in
  check "triangle holds in db" true (Ucq.holds db triangle);
  check "no triangle in unraveling" false
    (Ucq.holds u.Unraveling.instance triangle)

(* ------------------------------------------------------------------ *)
(* Grohe constructions and the clique reductions                        *)
(* ------------------------------------------------------------------ *)

let test_clique_reduction_k2 () =
  (* k = 2: K = 1, the 2×1 grid is a single edge; any query with an edge
     in its core carries the reduction. Deciding a 2-clique = deciding
     whether G has an edge. *)
  let d = Reductions.constraint_free_instance (Workload.path_cq 2) in
  check "lemma 7.2 data verifies" true (Reductions.verify_lemma72 d);
  let g_edge = Qgraph.Graph.of_edges [ (0, 1); (1, 2) ] in
  let g_empty = Qgraph.Graph.of_vertices_edges [ 0; 1; 2 ] [] in
  (match Reductions.clique_to_cqs d ~graph:g_edge ~k:2 with
  | Some ci -> check "edge graph: 2-clique found" true (Reductions.decide_clique ci)
  | None -> Alcotest.fail "expected reduction instance");
  match Reductions.clique_to_cqs d ~graph:g_empty ~k:2 with
  | Some ci ->
      check "empty graph: no 2-clique" false (Reductions.decide_clique ci)
  | None -> Alcotest.fail "expected reduction instance"

let test_clique_reduction_k3 () =
  (* k = 3: K = 3; the 3×3 grid query carries the reduction. *)
  let q = Workload.grid_cq 3 3 in
  let d = Reductions.constraint_free_instance q in
  check "grid query is its own core" true (Cq.equal d.Reductions.p (Cq.normalize q));
  let with_triangle = Workload.planted_clique ~n:6 ~k:3 ~p:0.15 ~seed:42 in
  let triangle_free = Qgraph.Graph.cycle 7 in
  check "sanity: planted has triangle" true (Qgraph.Graph.has_clique with_triangle 3);
  check "sanity: C7 triangle-free" false (Qgraph.Graph.has_clique triangle_free 3);
  (match Reductions.clique_to_cqs d ~graph:with_triangle ~k:3 with
  | Some ci ->
      check "3-clique detected through CQS evaluation" true
        (Reductions.decide_clique ci);
      (* item (1): h0 is a homomorphism onto D' *)
      check "h0 is a homomorphism" true
        (Grohe.h0_is_homomorphism ci.Reductions.d_star (Cq.canonical_db d.Reductions.p'))
  | None -> Alcotest.fail "expected minor map for 3x3 grid query");
  match Reductions.clique_to_cqs d ~graph:triangle_free ~k:3 with
  | Some ci ->
      check "triangle-free graph rejected" false (Reductions.decide_clique ci)
  | None -> Alcotest.fail "expected minor map"

let test_clique_reduction_with_constraints () =
  (* Theorem 5.13 with a non-empty guarded-full constraint set: the grid
     query over X,Y with Σ = {X(x,y) → V(x)}. D[p'] from the finite
     witness satisfies Σ. *)
  let sigma = [ tgd [ atom "X" [ v "x"; v "y" ] ] [ atom "V" [ v "x" ] ] ] in
  let q = Workload.grid_cq 3 3 in
  let s = Cqs.make ~constraints:sigma ~query:(Ucq.of_cq q) in
  let d = Reductions.lemma_7_2_data s in
  check "lemma 7.2 data verifies" true (Reductions.verify_lemma72 d);
  check "D[p'] satisfies Σ" true
    (Tgd.satisfies_all (Cq.canonical_db d.Reductions.p') sigma);
  let g = Workload.planted_clique ~n:6 ~k:3 ~p:0.1 ~seed:7 in
  match Reductions.clique_to_cqs d ~graph:g ~k:3 with
  | Some ci ->
      check "D* satisfies Σ (item 3 of Thm 7.1)" true
        (Tgd.satisfies_all ci.Reductions.d_star.Grohe.db sigma);
      check "decision matches ground truth" true
        (Reductions.decide_clique ci = Qgraph.Graph.has_clique g 3)
  | None -> Alcotest.fail "expected reduction instance"

let test_omq_grohe_construction () =
  (* Theorem 6.1 on the 2×2 grid query, k = 2 *)
  let q = Workload.grid_cq 2 2 in
  let dq = Cq.canonical_db q in
  let a = Instance.dom dq in
  match Grohe.find_minor_map ~k:2 dq a with
  | None -> Alcotest.fail "expected 2x1 grid minor"
  | Some mu ->
      let g = Qgraph.Graph.of_edges [ (0, 1); (1, 2); (2, 0) ] in
      let built = Grohe.omq_construction ~graph:g ~k:2 ~d:dq ~a ~mu in
      check "h0 is a homomorphism onto D" true
        (Grohe.h0_is_homomorphism built dq);
      check "2-clique criterion on triangle graph" true
        (Grohe.clique_criterion ~a built dq);
      let g0 = Qgraph.Graph.of_vertices_edges [ 0; 1 ] [] in
      let built0 = Grohe.omq_construction ~graph:g0 ~k:2 ~d:dq ~a ~mu in
      check "edgeless graph fails criterion" false
        (Grohe.clique_criterion ~a built0 dq)

(* ------------------------------------------------------------------ *)
(* OMQ → CQS reduction (Proposition 5.8)                                *)
(* ------------------------------------------------------------------ *)

let test_omq_to_cqs () =
  let sigma = Workload.manager_ontology () in
  let db = Instance.of_facts [ fact "Emp" [ "eve" ]; fact "Emp" [ "adam" ] ] in
  let queries =
    [
      bool_q [ atom "ReportsTo" [ v "x"; v "m" ]; atom "Managed" [ v "m" ] ];
      bool_q [ atom "ReportsTo" [ v "x"; v "x" ] ];
      bool_q [ atom "Managed" [ v "x" ] ];
    ]
  in
  List.iter
    (fun q ->
      let omq = Omq.full_data_schema ~ontology:sigma ~query:q in
      let d_star = Reductions.omq_to_cqs omq db in
      check "D* satisfies Σ (Lemma 6.8 item 1)" true
        (Tgd.satisfies_all d_star sigma);
      let open_world = (Omq_eval.certain ~max_level:6 omq db []).Omq_eval.holds in
      let closed_world = Ucq.holds d_star q in
      check "open-world = closed-world on D* (Lemma 6.8 item 2)" true
        (open_world = closed_world))
    queries

(* ------------------------------------------------------------------ *)
(* Suite                                                                *)
(* ------------------------------------------------------------------ *)

(* The engine-built witness against the naive blocked chase it replaced
   (test/oracle/blocked_chase.ml), over Σ from [closure_pool], whose
   chase may be infinite, and Boolean queries of at most n variables. M
   must contain D and model Σ, hold every q the bounded chase entails
   (the chase maps into every model), and answer q like the chase
   wherever the oracle's M does and the chase's answer is known: where
   the chase saturates, and wherever the oracle's M refutes q, which a
   model does only if the chase does. Blocking starts past depth n+1, so
   the run fires the chase's triggers in the chase's order up to there:
   with the null supply reset before each, the chase's first n+1 levels
   are facts of M, nulls and all. *)
let arb_witness_case =
  QCheck.make
    ~print:(fun (s, db, n, q) ->
      Fmt.str "%s n=%d q=%a" (Generators.print_sigma_db (s, db)) n Ucq.pp q)
    QCheck.Gen.(
      let* sigma = Generators.gen_pool_sigma Generators.closure_pool
      and* db = Generators.gen_closure_db
      and* q = Generators.gen_small_q in
      let vars =
        List.fold_left
          (fun k p -> max k (VarSet.cardinal (Cq.vars p)))
          1 (Ucq.disjuncts q)
      in
      let* n = int_range vars 3 in
      return (sigma, db, n, q))

let prop_witness_oracle =
  QCheck.Test.make ~name:"finite witness = blocked-chase oracle" ~count:1000
    arb_witness_case (fun (sigma, db, n, q) ->
      Term.reset_nulls ();
      let early = Tgds.Chase.run ~max_level:(n + 1) sigma db in
      Term.reset_nulls ();
      let m = Finite_witness.build ~n sigma db in
      let r = Tgds.Chase.run ~max_level:8 ~max_facts:4000 sigma db in
      let in_m = Ucq.holds m q in
      Finite_witness.verify sigma db m
      && Instance.subset (Tgds.Chase.instance early) m
      &&
      if Ucq.holds (Tgds.Chase.instance r) q then in_m
      else (not in_m) || Ucq.holds (Blocked_chase.build ~n sigma db) q)

(* [Finite_witness.verify]'s one restricted engine pass decides m ⊨ Σ
   as [Tgd.satisfies_all] does, and leaves the null supply as it was.
   m is a level-k prefix of the chase (k = 0 is D itself), which models
   Σ only sometimes: at saturation, or where the rules stay idle; Σ is
   drawn from [constant_pool], so heads and bodies may name a constant
   of Σ that m lacks. *)
let prop_verify_satisfies =
  QCheck.Test.make ~name:"witness check = Tgd.satisfies_all" ~count:1000
    (QCheck.make
       ~print:(fun ((s, db), k) -> Fmt.str "%s k=%d" (Generators.print_sigma_db (s, db)) k)
       QCheck.Gen.(
         pair
           (pair (Generators.gen_pool_sigma Generators.constant_pool)
              Generators.gen_closure_db)
           (int_range 0 4)))
    (fun ((sigma, db), k) ->
      Term.reset_nulls ();
      let m =
        Tgds.Chase.instance (Tgds.Chase.run ~max_level:k ~max_facts:4000 sigma db)
      in
      let nulls = Term.null_count () in
      let verdict = Finite_witness.verify sigma db m in
      verdict = Tgd.satisfies_all m sigma && Term.null_count () = nulls)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_tw_eval_correct ]
  @ [
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |])
        prop_witness_oracle;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 30 |])
        prop_verify_satisfies;
    ]

let () =
  Alcotest.run "guarded_core"
    [
      ( "tw-eval",
        [
          Alcotest.test_case "agrees with naive" `Quick test_tw_eval_agrees_with_naive;
          Alcotest.test_case "grid" `Quick test_tw_eval_grid;
          Alcotest.test_case "ground atoms" `Quick test_tw_eval_ground_and_constants;
        ] );
      ( "omq-eval",
        [
          Alcotest.test_case "baseline" `Quick test_omq_eval_baseline;
          Alcotest.test_case "fpt agrees" `Quick test_omq_eval_fpt_agrees;
          Alcotest.test_case "infinite chase" `Quick test_omq_eval_infinite_chase;
          Alcotest.test_case "data schema" `Quick test_omq_data_schema_enforced;
        ] );
      ( "cqs-eval",
        [
          Alcotest.test_case "promise + eval" `Quick test_cqs_eval_and_promise;
          Alcotest.test_case "semantic optimization" `Quick test_cqs_semantic_optimization;
        ] );
      ( "sigma-containment",
        [
          Alcotest.test_case "basic" `Quick test_sigma_containment;
          Alcotest.test_case "infinite chase" `Quick test_sigma_containment_infinite;
          Alcotest.test_case "witness refutes" `Quick
            test_sigma_containment_witness_refutes;
          Alcotest.test_case "minimize" `Quick test_sigma_minimize;
        ] );
      ( "finite-witness",
        [
          Alcotest.test_case "model + preservation" `Quick test_finite_witness_model;
          Alcotest.test_case "no spurious cycles" `Quick test_finite_witness_no_spurious_loop;
        ] );
      ( "meta-problem",
        [
          Alcotest.test_case "example 4.4" `Quick test_example_4_4;
          Alcotest.test_case "semantic UCQ treewidth" `Quick test_semantic_ucq_treewidth;
          Alcotest.test_case "full-schema OMQ" `Quick test_omq_equivalence_via_cqs;
          Alcotest.test_case "grounding approximation" `Quick test_grounding_approximation_small;
        ] );
      ("unraveling", [ Alcotest.test_case "guarded" `Quick test_guarded_unraveling ]);
      ( "grohe-reductions",
        [
          Alcotest.test_case "clique k=2" `Quick test_clique_reduction_k2;
          Alcotest.test_case "clique k=3" `Quick test_clique_reduction_k3;
          Alcotest.test_case "with constraints" `Quick test_clique_reduction_with_constraints;
          Alcotest.test_case "Thm 6.1 construction" `Quick test_omq_grohe_construction;
          Alcotest.test_case "OMQ→CQS" `Quick test_omq_to_cqs;
        ] );
      ("properties", qcheck_tests);
    ]
