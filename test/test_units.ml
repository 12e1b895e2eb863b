(* Fine-grained unit tests across all layers: term/atom/fact algebra,
   instance operations, chase levels, TGD details, UCQ algebra, verdict
   lattice, Grohe helpers, specializations, and the Prop 3.3(2)
   reduction. *)

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

(* ------------------------------------------------------------------ *)
(* Terms, atoms, facts                                                  *)
(* ------------------------------------------------------------------ *)

let test_fresh_nulls_distinct () =
  let n1 = fresh_null () and n2 = fresh_null () in
  check "distinct" false (equal_const n1 n2);
  check "are nulls" true (is_null n1 && is_null n2);
  check "named not null" false (is_null (Named "a"))

let test_term_pp () =
  check "const pp" true (Fmt.str "%a" Term.pp (Term.const "a") = "a");
  check "var pp" true (Fmt.str "%a" Term.pp (Term.var "x") = "?x");
  check "null pp" true
    (String.length (Fmt.str "%a" Term.pp_const (Null 7)) > 0)

let test_atom_ops () =
  let a = atom "R" [ v "x"; Term.const "c"; v "x" ] in
  check_int "arity" 3 (Atom.arity a);
  check_int "vars deduped" 1 (VarSet.cardinal (Atom.vars a));
  check_int "consts" 1 (ConstSet.cardinal (Atom.consts a));
  check "not ground" false (Atom.is_ground a);
  let a' = Atom.apply (VarMap.singleton "x" (Term.const "d")) a in
  check "ground after subst" true (Atom.is_ground a');
  let renamed =
    Atom.rename_consts (fun c -> if c = Named "c" then Some (Named "e") else None) a
  in
  check "renamed const" true (ConstSet.mem (Named "e") (Atom.consts renamed))

let test_fact_ops () =
  let f = fact "R" [ "a"; "b" ] in
  check "within" true
    (Fact.within (ConstSet.of_list [ Named "a"; Named "b"; Named "c" ]) f);
  check "not within" false (Fact.within (ConstSet.singleton (Named "a")) f);
  check "roundtrip via atom" true (Fact.equal f (Fact.of_atom (Fact.to_atom f)));
  check "of_atom rejects vars" true
    (try
       ignore (Fact.of_atom (atom "R" [ v "x" ]));
       false
     with Invalid_argument _ -> true);
  check "null detection" true
    (Fact.is_ground_of_nulls (Fact.make "R" [ Named "a"; fresh_null () ]))

(* ------------------------------------------------------------------ *)
(* Instance algebra                                                     *)
(* ------------------------------------------------------------------ *)

let test_instance_algebra () =
  let i1 = Instance.of_facts [ fact "R" [ "a" ]; fact "R" [ "b" ] ] in
  let i2 = Instance.of_facts [ fact "R" [ "b" ]; fact "S" [ "c" ] ] in
  check_int "union" 3 (Instance.size (Instance.union i1 i2));
  check_int "diff" 1 (Instance.size (Instance.diff i1 i2));
  check "subset reflexive" true (Instance.subset i1 i1);
  check "not subset" false (Instance.subset i2 i1);
  check_int "norm counts symbols" 4 (Instance.norm i1);
  check "is_empty" true (Instance.is_empty Instance.empty);
  let renamed = Instance.rename_map (ConstMap.singleton (Named "a") (Named "z")) i1 in
  check "rename_map" true (Instance.mem (fact "R" [ "z" ]) renamed);
  check "rename keeps others" true (Instance.mem (fact "R" [ "b" ]) renamed)

let test_instance_predicates_tuples () =
  let i = Instance.of_facts [ fact "R" [ "a"; "b" ]; fact "R" [ "c"; "d" ] ] in
  check_int "tuples" 2 (List.length (Instance.tuples "R" i));
  check_int "missing pred" 0 (List.length (Instance.tuples "Z" i));
  check "predicates" true (Instance.predicates i = [ "R" ]);
  check "schema inferred" true
    (Schema.arity_of "R" (Instance.schema i) = Some 2)

(* ------------------------------------------------------------------ *)
(* Chase levels and slices                                              *)
(* ------------------------------------------------------------------ *)

let test_chase_level_slices_monotone () =
  let sigma = Workload.linear_chain ~depth:5 in
  let db = Instance.of_facts [ fact "R0" [ "a"; "b" ] ] in
  let r = Tgds.Chase.run ~max_level:5 sigma db in
  let sizes =
    List.map (fun l -> Instance.size (Tgds.Chase.up_to_level r l)) [ 0; 1; 2; 3; 4; 5 ]
  in
  check "monotone slices" true
    (List.for_all2 ( <= ) sizes (List.tl sizes @ [ max_int ]));
  check_int "level 0 is D" 1 (List.hd sizes);
  check_int "one new fact per level" 6 (List.nth sizes 5)

let test_chase_max_facts_cutoff () =
  let sigma = [ tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "S" [ v "y"; v "z" ] ] ] in
  let db = Instance.of_facts [ fact "S" [ "a"; "b" ] ] in
  let r = Tgds.Chase.run ~max_level:1000 ~max_facts:10 sigma db in
  check "stopped by budget" false (Tgds.Chase.saturated r);
  check "near the budget" true (Instance.size (Tgds.Chase.instance r) <= 12)

(* ------------------------------------------------------------------ *)
(* TGD details                                                          *)
(* ------------------------------------------------------------------ *)

let test_tgd_details () =
  let t = tgd [ atom "R" [ v "x"; v "y" ] ] [ atom "S" [ v "y"; v "z" ]; atom "T" [ v "z" ] ] in
  check "guard is R" true
    (match Tgd.guard t with Some g -> Atom.pred g = "R" | None -> false);
  check_int "head size" 2 (Tgd.head_size t);
  check "frontier is y" true (VarSet.equal (Tgd.frontier t) (VarSet.singleton "y"));
  check "z existential" true (VarSet.mem "z" (Tgd.existential_vars t));
  check "body cq answers = frontier" true (Cq.answer (Tgd.body_cq t) = [ "y" ]);
  let split_rejected =
    try
      ignore (Tgd.split_full t);
      false
    with Invalid_argument _ -> true
  in
  check "split_full rejects existential TGD" true split_rejected;
  let full = tgd [ atom "R" [ v "x"; v "y" ] ] [ atom "A" [ v "x" ]; atom "B" [ v "y" ] ] in
  check_int "split_full" 2 (List.length (Tgd.split_full full));
  check "empty head rejected" true
    (try
       ignore (Tgd.make ~body:[] ~head:[]);
       false
     with Invalid_argument _ -> true)

let test_tgd_rename_apart () =
  let t = tgd [ atom "R" [ v "x"; v "y" ] ] [ atom "S" [ v "y"; v "z" ] ] in
  let t' = Tgd.rename_apart ~suffix:"_1" t in
  check "vars disjoint" true
    (VarSet.is_empty
       (VarSet.inter
          (VarSet.union (Tgd.body_vars t) (Tgd.head_vars t))
          (VarSet.union (Tgd.body_vars t') (Tgd.head_vars t'))));
  check "classes preserved" true (Tgd.is_linear t' && Tgd.is_guarded t')

(* ------------------------------------------------------------------ *)
(* UCQ algebra, containment                                             *)
(* ------------------------------------------------------------------ *)

let test_ucq_dedup_minimize () =
  let q1 = Cq.make [ atom "R" [ v "x" ] ] in
  let q2 = Cq.make [ atom "R" [ v "y" ] ] in
  (* q2 is q1 renamed: dedup is syntactic, minimize is semantic *)
  let u = Ucq.make [ q1; q2; q1 ] in
  check_int "syntactic dedup" 2 (List.length (Ucq.disjuncts (Ucq.dedup u)));
  check_int "semantic minimize" 1
    (List.length (Ucq.disjuncts (Containment.minimize_ucq u)));
  let q3 = Cq.make [ atom "R" [ v "x" ]; atom "S" [ v "x" ] ] in
  let u2 = Ucq.make [ q1; q3 ] in
  (* q3 ⊆ q1, so q3 is subsumed *)
  check_int "subsumed disjunct dropped" 1
    (List.length (Ucq.disjuncts (Containment.minimize_ucq u2)))

let test_verdict_lattice () =
  let open Sigma_containment in
  check "and holds" true (verdict_and Holds Holds = Holds);
  check "and fails wins" true (verdict_and Unknown Fails = Fails);
  check "and unknown" true (verdict_and Holds Unknown = Unknown);
  check "or holds wins" true (verdict_or Unknown Holds = Holds);
  check "or fails" true (verdict_or Fails Fails = Fails);
  check "or unknown" true (verdict_or Fails Unknown = Unknown)

let test_sigma_containment_reflexive () =
  let sigma = Workload.referential_constraints () in
  let q = Cq.make ~answer:[ "o" ] [ atom "Order" [ v "o"; v "c" ] ] in
  check "q ⊆_Σ q" true (Sigma_containment.cq_contained sigma q q = Sigma_containment.Holds)

(* ------------------------------------------------------------------ *)
(* Grohe helpers                                                        *)
(* ------------------------------------------------------------------ *)

let test_grohe_helpers () =
  check_int "K for k=3" 3 (Grohe.capital_k 3);
  check_int "K for k=4" 6 (Grohe.capital_k 4);
  check_int "pairs count" 6 (List.length (Grohe.pairs 4));
  check "pairs ordered" true (List.hd (Grohe.pairs 3) = (1, 2));
  let g = Grohe.grid 3 in
  check_int "3xK grid vertices" 9 (Qgraph.Graph.num_vertices g);
  check_int "grid_vertex" 0 (Grohe.grid_vertex 3 ~i:1 ~p:1)

let test_minor_map_structure () =
  let q = Workload.grid_cq 3 3 in
  let dq = Cq.canonical_db q in
  let a = Instance.dom dq in
  match Grohe.find_minor_map ~k:3 dq a with
  | None -> Alcotest.fail "expected a minor map"
  | Some mu ->
      (* branch sets cover A (onto) and positions are consistent *)
      let total =
        Array.fold_left
          (fun acc row ->
            Array.fold_left (fun acc bs -> acc + ConstSet.cardinal bs) acc row)
          0 mu.Grohe.branch
      in
      check_int "onto: branches cover A" (ConstSet.cardinal a) total;
      ConstMap.iter
        (fun c (i, p) ->
          check "position matches branch" true
            (ConstSet.mem c mu.Grohe.branch.(i - 1).(p - 1)))
        mu.Grohe.position

(* ------------------------------------------------------------------ *)
(* Specializations                                                      *)
(* ------------------------------------------------------------------ *)

let test_specialization_count () =
  (* q = R(x,y): contractions {R(x,y), R(x,x)}; V-subsets: 4 for the
     2-variable contraction, 2 for the loop *)
  let q = Cq.make [ atom "R" [ v "x"; v "y" ] ] in
  check_int "specialization count" 6 (List.length (Specialization.all q))

let test_specialization_answer_vars_in_v () =
  let q = Cq.make ~answer:[ "x" ] [ atom "R" [ v "x"; v "y" ] ] in
  List.iter
    (fun s -> check "answer var in V" true (VarSet.mem "x" s.Specialization.v))
    (Specialization.all q)

(* ------------------------------------------------------------------ *)
(* Prop 3.3(2): Boolean CQ → FG OMQ                                     *)
(* ------------------------------------------------------------------ *)

let test_bcq_to_fg_omq () =
  let q =
    Cq.make
      [ atom "E" [ v "x"; v "y" ]; atom "E" [ v "y"; v "z" ]; atom "E" [ v "z"; v "x" ] ]
  in
  let omq = Reductions.bcq_to_fg_omq q in
  check "FG but not G" true
    (Omq.in_frontier_guarded omq && not (Omq.in_guarded omq));
  let triangle =
    Instance.of_facts [ fact "E" [ "a"; "b" ]; fact "E" [ "b"; "c" ]; fact "E" [ "c"; "a" ] ]
  in
  let path = Instance.of_facts [ fact "E" [ "a"; "b" ]; fact "E" [ "b"; "c" ] ] in
  check "triangle db: certain" true (Omq_eval.certain omq triangle []).Omq_eval.holds;
  check "path db: not certain" false (Omq_eval.certain omq path []).Omq_eval.holds;
  check "agrees with direct CQ evaluation" true
    ((Omq_eval.certain omq triangle []).Omq_eval.holds = Cq.holds triangle q)

(* ------------------------------------------------------------------ *)
(* Example 4.4, second part: the data schema matters                    *)
(* ------------------------------------------------------------------ *)

let test_example_4_4_data_schema () =
  (* Q2 with Σ' = {S(x) → R1(x), S(x) → R3(x)} and full data schema is NOT
     UCQ1-equivalent (§4.1). *)
  let sigma =
    [
      tgd [ atom "S" [ v "x" ] ] [ atom "R1" [ v "x" ] ];
      tgd [ atom "S" [ v "x" ] ] [ atom "R3" [ v "x" ] ];
    ]
  in
  let q =
    Cq.make
      [
        atom "P" [ v "x2"; v "x1" ]; atom "P" [ v "x4"; v "x1" ];
        atom "P" [ v "x2"; v "x3" ]; atom "P" [ v "x4"; v "x3" ];
        atom "R1" [ v "x1" ]; atom "R2" [ v "x2" ];
        atom "R3" [ v "x3" ]; atom "R4" [ v "x4" ];
      ]
  in
  let s = Cqs.make ~constraints:sigma ~query:(Ucq.of_cq q) in
  let verdict, _ = Equivalence.cqs_uniformly_ucqk_equivalent 1 s in
  check "Q2 not UCQ1-equivalent with full data schema" true
    (verdict = Equivalence.Fails)

(* ------------------------------------------------------------------ *)
(* Unraveling depth                                                     *)
(* ------------------------------------------------------------------ *)

let test_unraveling_depth_grows () =
  let db =
    Instance.of_facts
      [ fact "E" [ "a"; "b" ]; fact "E" [ "b"; "c" ]; fact "E" [ "c"; "a" ] ]
  in
  let start = ConstSet.of_list [ Named "a"; Named "b" ] in
  let s1 = Instance.size (Unraveling.guarded ~depth:1 db start).Unraveling.instance in
  let s3 = Instance.size (Unraveling.guarded ~depth:3 db start).Unraveling.instance in
  check "deeper unraveling is bigger" true (s1 < s3);
  let u0 = Unraveling.guarded ~depth:0 db start in
  check "depth 0 is the root bag" true
    (Instance.equal u0.Unraveling.instance (Instance.restrict db start))

(* ------------------------------------------------------------------ *)
(* Cqs / Omq structure                                                  *)
(* ------------------------------------------------------------------ *)

let test_omq_cqs_structure () =
  let s =
    Cqs.make
      ~constraints:(Workload.referential_constraints ())
      ~query:(Ucq.of_cq (Cq.make ~answer:[ "o" ] [ atom "Order" [ v "o"; v "c" ] ]))
  in
  let omq = Cqs.omq s in
  check "omq(S) has full data schema" true (Omq.has_full_data_schema omq);
  check_int "arity" 1 (Omq.arity omq);
  check "in FG_1" true (Cqs.in_fg 1 s);
  check "norm positive" true (Cqs.norm s > 0 && Omq.norm omq > 0);
  let partial =
    Omq.make
      ~data_schema:(Schema.of_list [ ("Order", 2) ])
      ~ontology:(Cqs.constraints s) ~query:(Cqs.query s)
  in
  check "partial schema not full" false (Omq.has_full_data_schema partial)

let () =
  Alcotest.run "units"
    [
      ( "terms-atoms-facts",
        [
          Alcotest.test_case "fresh nulls" `Quick test_fresh_nulls_distinct;
          Alcotest.test_case "term pp" `Quick test_term_pp;
          Alcotest.test_case "atom ops" `Quick test_atom_ops;
          Alcotest.test_case "fact ops" `Quick test_fact_ops;
        ] );
      ( "instance",
        [
          Alcotest.test_case "algebra" `Quick test_instance_algebra;
          Alcotest.test_case "predicates/tuples" `Quick test_instance_predicates_tuples;
        ] );
      ( "chase",
        [
          Alcotest.test_case "level slices" `Quick test_chase_level_slices_monotone;
          Alcotest.test_case "fact budget" `Quick test_chase_max_facts_cutoff;
        ] );
      ( "tgd",
        [
          Alcotest.test_case "details" `Quick test_tgd_details;
          Alcotest.test_case "rename apart" `Quick test_tgd_rename_apart;
        ] );
      ( "ucq-containment",
        [
          Alcotest.test_case "dedup/minimize" `Quick test_ucq_dedup_minimize;
          Alcotest.test_case "verdict lattice" `Quick test_verdict_lattice;
          Alcotest.test_case "Σ-containment reflexive" `Quick test_sigma_containment_reflexive;
        ] );
      ( "grohe",
        [
          Alcotest.test_case "helpers" `Quick test_grohe_helpers;
          Alcotest.test_case "minor map structure" `Quick test_minor_map_structure;
        ] );
      ( "specialization",
        [
          Alcotest.test_case "count" `Quick test_specialization_count;
          Alcotest.test_case "answers in V" `Quick test_specialization_answer_vars_in_v;
        ] );
      ( "reductions",
        [
          Alcotest.test_case "BCQ→FG OMQ" `Quick test_bcq_to_fg_omq;
          Alcotest.test_case "example 4.4 data schema" `Quick test_example_4_4_data_schema;
        ] );
      ("unraveling", [ Alcotest.test_case "depth" `Quick test_unraveling_depth_grows ]);
      ("structure", [ Alcotest.test_case "omq/cqs" `Quick test_omq_cqs_structure ]);
    ]
