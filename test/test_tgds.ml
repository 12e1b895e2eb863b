(* Tests for the TGD layer: classes, satisfaction, chase, ground closure,
   linearization, linear rewriting. *)

open Relational
open Relational.Term
open Tgds

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let v = Term.var
let atom p args = Atom.make p args
let fact p args = Fact.make p (List.map (fun s -> Named s) args)
let tgd body head = Tgd.make ~body ~head

(* ------------------------------------------------------------------ *)
(* Classes                                                              *)
(* ------------------------------------------------------------------ *)

let test_classes () =
  (* guarded: body has an atom with all body variables *)
  let g = tgd [ atom "R" [ v "x"; v "y" ]; atom "A" [ v "x" ] ] [ atom "B" [ v "y" ] ] in
  check "guarded" true (Tgd.is_guarded g);
  check "frontier-guarded" true (Tgd.is_frontier_guarded g);
  check "not linear" false (Tgd.is_linear g);
  check "full" true (Tgd.is_full g);
  (* frontier-guarded but not guarded: x,y jointly unguarded, frontier {x} *)
  let fg =
    tgd [ atom "E" [ v "x"; v "y" ]; atom "E" [ v "y"; v "z" ] ] [ atom "A" [ v "x" ] ]
  in
  check "fg not guarded" false (Tgd.is_guarded fg);
  check "fg frontier-guarded" true (Tgd.is_frontier_guarded fg);
  (* not even frontier-guarded: frontier {x,z} in no single atom *)
  let nfg =
    tgd [ atom "E" [ v "x"; v "y" ]; atom "E" [ v "y"; v "z" ] ] [ atom "R" [ v "x"; v "z" ] ]
  in
  check "not fg" false (Tgd.is_frontier_guarded nfg);
  (* linear with existential *)
  let lin = tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "z" ] ] in
  check "linear" true (Tgd.is_linear lin);
  check "linear is guarded" true (Tgd.is_guarded lin);
  check "not full" false (Tgd.is_full lin);
  check "existential z" true (VarSet.mem "z" (Tgd.existential_vars lin));
  check "frontier x" true (VarSet.equal (Tgd.frontier lin) (VarSet.singleton "x"));
  check "fg_1" true (Tgd.is_fg 1 lin);
  check "head size" true (Tgd.head_size lin = 1)

let test_boolean_cq_as_fg_tgd () =
  (* §3.1: a Boolean CQ body with 0-ary head is trivially frontier-guarded
     (empty frontier) but not guarded *)
  let t =
    tgd [ atom "E" [ v "x"; v "y" ]; atom "E" [ v "y"; v "z" ] ] [ atom "Ans" [] ]
  in
  check "empty frontier" true (VarSet.is_empty (Tgd.frontier t));
  check "fg" true (Tgd.is_frontier_guarded t);
  check "not guarded" false (Tgd.is_guarded t)

let test_satisfaction () =
  let t = tgd [ atom "R" [ v "x"; v "y" ] ] [ atom "A" [ v "x" ] ] in
  let ok = Instance.of_facts [ fact "R" [ "a"; "b" ]; fact "A" [ "a" ] ] in
  let bad = Instance.of_facts [ fact "R" [ "a"; "b" ] ] in
  check "satisfied" true (Tgd.satisfies ok t);
  check "violated" false (Tgd.satisfies bad t);
  (* existential head *)
  let t2 = tgd [ atom "A" [ v "x" ] ] [ atom "R" [ v "x"; v "z" ] ] in
  check "existential satisfied" true
    (Tgd.satisfies (Instance.of_facts [ fact "A" [ "a" ]; fact "R" [ "a"; "c" ] ]) t2);
  check "existential violated" false
    (Tgd.satisfies (Instance.of_facts [ fact "A" [ "a" ] ]) t2)

(* ------------------------------------------------------------------ *)
(* Chase                                                                *)
(* ------------------------------------------------------------------ *)

let test_chase_terminating () =
  let sigma =
    [
      tgd [ atom "E" [ v "x"; v "y" ] ] [ atom "P" [ v "x" ] ];
      tgd [ atom "P" [ v "x" ] ] [ atom "Q" [ v "x" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "E" [ "a"; "b" ] ] in
  let r = Chase.run sigma db in
  check "saturates" true (Chase.saturated r);
  check "P derived" true (Instance.mem (fact "P" [ "a" ]) (Chase.instance r));
  check "Q derived" true (Instance.mem (fact "Q" [ "a" ]) (Chase.instance r));
  check "chase models sigma" true (Tgd.satisfies_all (Chase.instance r) sigma);
  (* levels: E level 0, P level 1, Q level 2 *)
  check "level P" true (Chase.level r (fact "P" [ "a" ]) = Some 1);
  check "level Q" true (Chase.level r (fact "Q" [ "a" ]) = Some 2);
  check "level E" true (Chase.level r (fact "E" [ "a"; "b" ]) = Some 0)

let test_chase_existentials_and_ground_part () =
  let sigma = [ tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "z" ] ] ] in
  let db = Instance.of_facts [ fact "A" [ "a" ] ] in
  let r = Chase.run sigma db in
  check "saturates" true (Chase.saturated r);
  check_int "one null invented" 2 (Instance.size (Chase.instance r));
  check_int "ground part has only A" 1 (Instance.size (Chase.ground_part r));
  check "S has a null" true
    (Instance.exists
       (fun f -> Fact.pred f = "S" && Fact.is_ground_of_nulls f)
       (Chase.instance r))

let test_chase_nonterminating_bounded () =
  (* S(x,y) → ∃z S(y,z): infinite chase *)
  let sigma = [ tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "S" [ v "y"; v "z" ] ] ] in
  let db = Instance.of_facts [ fact "S" [ "a"; "b" ] ] in
  let r = Chase.run ~max_level:4 sigma db in
  check "not saturated" false (Chase.saturated r);
  check_int "exactly 5 facts (path of length 5)" 5 (Instance.size (Chase.instance r));
  (* level-bounded slices grow by one atom per level here *)
  check_int "level ≤ 2 slice" 3 (Instance.size (Chase.up_to_level r 2))

let test_chase_oblivious_fires_satisfied_heads () =
  (* oblivious chase fires the trigger even though the head is satisfied:
     A(x) → ∃z S(x,z) on D = {A(a), S(a,b)} invents a fresh null anyway *)
  let sigma = [ tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "z" ] ] ] in
  let db = Instance.of_facts [ fact "A" [ "a" ]; fact "S" [ "a"; "b" ] ] in
  let r = Chase.run sigma db in
  check_int "three facts" 3 (Instance.size (Chase.instance r))

let test_chase_multi_head_shares_nulls () =
  let sigma =
    [ tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "z" ]; atom "T" [ v "z" ] ] ]
  in
  let db = Instance.of_facts [ fact "A" [ "a" ] ] in
  let r = Chase.run sigma db in
  let s_null =
    Instance.fold
      (fun f acc -> if Fact.pred f = "S" then List.nth (Fact.args f) 1 :: acc else acc)
      (Chase.instance r) []
  in
  let t_arg =
    Instance.fold
      (fun f acc -> if Fact.pred f = "T" then List.hd (Fact.args f) :: acc else acc)
      (Chase.instance r) []
  in
  check "same null shared" true
    (match (s_null, t_arg) with
    | [ n1 ], [ n2 ] -> equal_const n1 n2 && is_null n1
    | _ -> false)

let test_chase_empty_body () =
  let sigma = [ tgd [] [ atom "U" [ v "z" ] ] ] in
  let r = Chase.run sigma Instance.empty in
  check "fact created from empty body" true
    (Instance.exists (fun f -> Fact.pred f = "U") (Chase.instance r))

(* ------------------------------------------------------------------ *)
(* Full chase                                                           *)
(* ------------------------------------------------------------------ *)

let test_full_chase () =
  let sigma =
    [
      tgd [ atom "E" [ v "x"; v "y" ]; atom "E" [ v "y"; v "z" ] ] [ atom "E" [ v "x"; v "z" ] ];
    ]
  in
  let db =
    Instance.of_facts [ fact "E" [ "a"; "b" ]; fact "E" [ "b"; "c" ]; fact "E" [ "c"; "d" ] ]
  in
  let sat = Chase.instance (Chase.run sigma db) in
  check "transitive closure" true (Instance.mem (fact "E" [ "a"; "d" ]) sat);
  check_int "6 edges" 6 (Instance.size sat);
  check "models" true (Tgd.satisfies_all sat sigma)

(* ------------------------------------------------------------------ *)
(* Ground closure                                                       *)
(* ------------------------------------------------------------------ *)

let test_ground_closure_terminating () =
  let sigma =
    [
      tgd [ atom "R" [ v "x"; v "y" ] ] [ atom "A" [ v "x" ] ];
      tgd [ atom "A" [ v "x" ] ] [ atom "B" [ v "x" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "R" [ "a"; "b" ] ] in
  let gc = Ground_closure.compute sigma db in
  let expected = Chase.ground_part (Chase.run sigma db) in
  check "matches chase ground part" true (Instance.equal gc expected)

let test_ground_closure_infinite_chase () =
  (* infinite chase, finite ground closure: facts about 'a' flow back from
     the first child bag only *)
  let sigma =
    [
      tgd [ atom "R" [ v "x" ] ] [ atom "S" [ v "x"; v "z" ] ];
      tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "S" [ v "y"; v "z" ] ];
      tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "A" [ v "x" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "R" [ "a" ] ] in
  let gc = Ground_closure.compute sigma db in
  check "R kept" true (Instance.mem (fact "R" [ "a" ]) gc);
  check "A(a) derived" true (Instance.mem (fact "A" [ "a" ]) gc);
  check_int "nothing else" 2 (Instance.size gc)

let test_ground_closure_deep () =
  (* ground fact needs a grandchild derivation:
     R(x) → ∃z E(x,z); E(x,z) → ∃w F(x,z,w); F(x,z,w) → G(x) *)
  let sigma =
    [
      tgd [ atom "R" [ v "x" ] ] [ atom "E" [ v "x"; v "z" ] ];
      tgd [ atom "E" [ v "x"; v "z" ] ] [ atom "F" [ v "x"; v "z"; v "w" ] ];
      tgd [ atom "F" [ v "x"; v "z"; v "w" ] ] [ atom "G" [ v "x" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "R" [ "a" ] ] in
  let gc = Ground_closure.compute sigma db in
  check "G(a) found through two levels" true (Instance.mem (fact "G" [ "a" ]) gc);
  check_int "closure size" 2 (Instance.size gc)

let test_ground_closure_context_matters () =
  (* the child bag needs the root context over the frontier:
     A(x), C(x) both needed inside the subtree *)
  let sigma =
    [
      tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "z" ] ];
      tgd [ atom "S" [ v "x"; v "y" ]; atom "C" [ v "x" ] ] [ atom "D" [ v "x" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "A" [ "a" ]; fact "C" [ "a" ] ] in
  let gc = Ground_closure.compute sigma db in
  check "D(a) derived using context" true (Instance.mem (fact "D" [ "a" ]) gc);
  (* without C(a) it must not be derived *)
  let gc2 = Ground_closure.compute sigma (Instance.of_facts [ fact "A" [ "a" ] ]) in
  check "no D without C" false (Instance.mem (fact "D" [ "a" ]) gc2)

let test_ground_closure_context_added_late () =
  (* the context fact arrives only after another subtree reports back:
     A(x) → ∃z S(x,z);  S(x,y) → C(x);  S(x,y), C(x) → D(x) *)
  let sigma =
    [
      tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "z" ] ];
      tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "C" [ v "x" ] ];
      tgd [ atom "S" [ v "x"; v "y" ]; atom "C" [ v "x" ] ] [ atom "D" [ v "x" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "A" [ "a" ] ] in
  let gc = Ground_closure.compute sigma db in
  check "C(a)" true (Instance.mem (fact "C" [ "a" ]) gc);
  check "D(a) via re-chased subtree" true (Instance.mem (fact "D" [ "a" ]) gc)

let test_ground_closure_rejects_unguarded () =
  let sigma =
    [ tgd [ atom "E" [ v "x"; v "y" ]; atom "E" [ v "y"; v "z" ] ] [ atom "A" [ v "x" ] ] ]
  in
  check "unguarded rejected" true
    (try
       ignore (Ground_closure.compute sigma Instance.empty);
       false
     with Invalid_argument _ -> true)

let test_ground_closure_constants () =
  (* Σ's constants are shared by every bag: a child bag derives a fact
     over one, and needs a fact over one from its context *)
  let sigma =
    [
      tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "z" ] ];
      tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "P" [ Term.const "a" ] ];
      tgd [ atom "S" [ v "x"; v "y" ]; atom "P" [ Term.const "a" ] ] [ atom "Q" [ v "x" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "A" [ "a" ]; fact "A" [ "b" ] ] in
  let gc = Ground_closure.compute sigma db in
  check "P(a)" true (Instance.mem (fact "P" [ "a" ]) gc);
  check "Q(b) from a context over a constant" true (Instance.mem (fact "Q" [ "b" ]) gc);
  check "matches chase ground part" true
    (Instance.equal gc (Chase.ground_part (Chase.run sigma db)))

let test_type_of () =
  let sigma =
    [ tgd [ atom "R" [ v "x"; v "y" ] ] [ atom "A" [ v "x" ] ] ]
  in
  let db = Instance.of_facts [ fact "R" [ "a"; "b" ]; fact "R" [ "b"; "c" ] ] in
  let ty = Ground_closure.type_of sigma db (ConstSet.of_list [ Named "a"; Named "b" ]) in
  check "guard in type" true (Instance.mem (fact "R" [ "a"; "b" ]) ty);
  check "A(a) in type" true (Instance.mem (fact "A" [ "a" ]) ty);
  check "R(b,c) outside" false (Instance.mem (fact "R" [ "b"; "c" ]) ty)

(* ------------------------------------------------------------------ *)
(* Linearization (Lemma A.3)                                            *)
(* ------------------------------------------------------------------ *)

let bool_q atoms = Ucq.of_cq (Cq.make atoms)

let omq sigma db q =
  Guarded_core.Omq.make ~data_schema:(Instance.schema db) ~ontology:sigma ~query:q

(* The FPT route of the CLI: Σ linearized, the linear chase, the match. *)
let fpt_route ?max_level sigma db q tuple =
  let v =
    Guarded_core.Omq_eval.certain ~fpt:true ?max_level (omq sigma db q) db tuple
  in
  (v.Guarded_core.Omq_eval.holds, v.Guarded_core.Omq_eval.exact)

let test_linearize_simple () =
  let sigma =
    [
      tgd [ atom "P" [ v "x" ] ] [ atom "R" [ v "x"; v "z" ] ];
      tgd [ atom "R" [ v "x"; v "y" ] ] [ atom "Q" [ v "x" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "P" [ "a" ] ] in
  let lin = Linearize.make sigma db in
  check "all rules linear" true (Tgd.all_linear lin.Linearize.sigma_star);
  check "exploration complete" true lin.Linearize.complete;
  let q = bool_q [ atom "Q" [ v "x" ] ] in
  let verdict, exact = fpt_route ~max_level:8 sigma db q [] in
  check "Q certain via linearization" true verdict;
  check "exact" true exact;
  let q2 = bool_q [ atom "Z" [ v "x" ] ] in
  check "absent predicate not certain" false (fst (fpt_route ~max_level:8 sigma db q2 []))

let test_linearize_matches_direct_chase () =
  (* guarded ontology with a terminating chase: compare against ground truth *)
  let sigma =
    [
      tgd [ atom "Emp" [ v "x" ] ] [ atom "WorksFor" [ v "x"; v "z" ] ];
      tgd [ atom "WorksFor" [ v "x"; v "y" ] ] [ atom "Dept" [ v "y" ] ];
      tgd [ atom "Dept" [ v "y" ] ] [ atom "HasHead" [ v "y"; v "w" ] ];
      tgd [ atom "HasHead" [ v "y"; v "w" ] ] [ atom "Mgr" [ v "w" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "Emp" [ "e1" ]; fact "Dept" [ "d0" ] ] in
  let queries =
    [
      bool_q [ atom "Mgr" [ v "m" ] ];
      bool_q [ atom "WorksFor" [ v "x"; v "y" ]; atom "HasHead" [ v "y"; v "w" ] ];
      bool_q [ atom "HasHead" [ v "y"; v "w" ]; atom "Mgr" [ v "w" ] ];
      bool_q [ atom "Emp" [ v "x" ]; atom "Mgr" [ v "x" ] ];
    ]
  in
  List.iter
    (fun q ->
      let direct, sat = Chase.certain ~max_level:8 sigma db q [] in
      check "direct chase saturated" true sat;
      let via_lin, _ = fpt_route ~max_level:10 sigma db q [] in
      check "linearization agrees with chase" true (direct = via_lin))
    queries

let test_linearize_constants () =
  (* Σ's constants are fixed classes of every Σ-type: the type of r(c,a)
     keeps c, so r(c,x) → s(x) fires on it in D* on both routes that
     linearize *)
  let sigma =
    [
      tgd [ atom "r" [ Term.const "c"; v "x" ] ] [ atom "s" [ v "x" ] ];
      tgd [ atom "s" [ v "x" ] ] [ atom "t" [ v "x"; v "z" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "r" [ "c"; "a" ] ] in
  let q = Ucq.of_cq (Cq.make ~answer:[ "x" ] [ atom "s" [ v "x" ] ]) in
  let both = Alcotest.(check (pair bool bool)) in
  both "FPT: s(a) certain, exact" (true, true) (fpt_route sigma db q [ Named "a" ]);
  both "rewriting: s(a) certain, exact" (true, true)
    (Guarded_core.Guarded_rewrite.certain sigma db q [ Named "a" ]);
  both "FPT: s(c) not certain, exact" (false, true) (fpt_route sigma db q [ Named "c" ])

let test_linearize_bodiless () =
  (* a bodiless rule's single trigger fires once on every route: with
     Σ = {→ R(b); R(x) → S(x)}, S(b) is certain although D never names
     R *)
  let sigma =
    [
      tgd [] [ atom "R" [ Term.const "b" ] ];
      tgd [ atom "R" [ v "x" ] ] [ atom "S" [ v "x" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "A" [ "a" ] ] in
  let q = bool_q [ atom "S" [ v "x" ] ] in
  let both = Alcotest.(check (pair bool bool)) in
  let chase sigma =
    let v = Guarded_core.Omq_eval.certain (omq sigma db q) db [] in
    (v.Guarded_core.Omq_eval.holds, v.Guarded_core.Omq_eval.exact)
  in
  both "chase: certain, exact" (true, true) (chase sigma);
  both "FPT: certain, exact" (true, true) (fpt_route sigma db q []);
  both "rewriting: certain, exact" (true, true)
    (Guarded_core.Guarded_rewrite.certain sigma db q []);
  (* an existential bodiless head has no ground seed: both linearizing
     routes report themselves inexact instead of a wrong "no" *)
  let sigma = [ tgd [] [ atom "R" [ v "z" ] ]; List.nth sigma 1 ] in
  both "chase: existential head" (true, true) (chase sigma);
  both "FPT: existential head inexact" (false, false) (fpt_route sigma db q []);
  both "rewriting: existential head inexact" (false, false)
    (Guarded_core.Guarded_rewrite.certain sigma db q [])

(* ------------------------------------------------------------------ *)
(* Linear rewriting (Prop D.2)                                          *)
(* ------------------------------------------------------------------ *)

let test_rewrite_single_head () =
  (* A(x) → ∃y S(x,y); q() :- S(u,w) rewrites to include A(u) *)
  let sigma = [ tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ] ] in
  let q = bool_q [ atom "S" [ v "u"; v "w" ] ] in
  let q', complete = Linear_rewrite.rewrite sigma q in
  check "complete" true complete;
  check_int "two disjuncts" 2 (List.length (Ucq.disjuncts q'));
  check "A-db entails" true (Ucq.holds (Instance.of_facts [ fact "A" [ "a" ] ]) q');
  check "S-db entails" true (Ucq.holds (Instance.of_facts [ fact "S" [ "a"; "b" ] ]) q');
  check "B-db does not" false (Ucq.holds (Instance.of_facts [ fact "B" [ "a" ] ]) q')

let test_rewrite_blocked_by_join () =
  (* A(x) → ∃y S(x,y): q() :- S(u,w), T(w) must NOT rewrite the S atom
     alone because w is shared with T outside the piece *)
  let sigma = [ tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ] ] in
  let q = bool_q [ atom "S" [ v "u"; v "w" ]; atom "T" [ v "w" ] ] in
  let q', complete = Linear_rewrite.rewrite sigma q in
  check "complete" true complete;
  check_int "no rewriting applies" 1 (List.length (Ucq.disjuncts q'));
  check "A+T db does not entail" false
    (Ucq.holds (Instance.of_facts [ fact "A" [ "a" ]; fact "T" [ "b" ] ]) q')

let test_rewrite_multi_head_piece () =
  (* A(x) → ∃y (S(x,y) ∧ T(y)): the two-atom piece rewrites to A(u) *)
  let sigma =
    [ tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ]; atom "T" [ v "y" ] ] ]
  in
  let q = bool_q [ atom "S" [ v "u"; v "w" ]; atom "T" [ v "w" ] ] in
  let q', complete = Linear_rewrite.rewrite sigma q in
  check "complete" true complete;
  check "A-db entails via piece" true
    (Ucq.holds (Instance.of_facts [ fact "A" [ "a" ] ]) q')

let test_rewrite_chain () =
  (* two inclusion dependencies chain: C(x) → ∃y R(x,y); R(x,y) → P(x) is
     not linear-with-existential... use: B(x) → ∃y R(x,y); R(x,y) → ∃z S(y,z)
     q() :- S(u,w): rewrites through R then B *)
  let sigma =
    [
      tgd [ atom "B" [ v "x" ] ] [ atom "R" [ v "x"; v "y" ] ];
      tgd [ atom "R" [ v "x"; v "y" ] ] [ atom "S" [ v "y"; v "z" ] ];
    ]
  in
  let q = bool_q [ atom "S" [ v "u"; v "w" ] ] in
  let q', complete = Linear_rewrite.rewrite sigma q in
  check "complete" true complete;
  check "B-db entails" true (Ucq.holds (Instance.of_facts [ fact "B" [ "a" ] ]) q');
  check "R-db entails" true (Ucq.holds (Instance.of_facts [ fact "R" [ "a"; "b" ] ]) q');
  check "agrees with chase on B-db" true
    (fst (Chase.certain sigma (Instance.of_facts [ fact "B" [ "a" ] ]) q []))

let test_rewrite_answer_variables () =
  let sigma = [ tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ] ] in
  let q = Ucq.of_cq (Cq.make ~answer:[ "u" ] [ atom "S" [ v "u"; v "w" ] ]) in
  let q', _ = Linear_rewrite.rewrite sigma q in
  let db = Instance.of_facts [ fact "A" [ "a" ]; fact "S" [ "b"; "c" ] ] in
  let ans = Ucq.answers db q' in
  check "both answers found" true
    (List.mem [ Named "a" ] ans && List.mem [ Named "b" ] ans);
  check_int "exactly two" 2 (List.length ans)

let test_rewrite_existential_cannot_touch_answer () =
  (* q(w) :- S(u,w): the existential y of the TGD unifies with answer w →
     rewriting must not apply *)
  let sigma = [ tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ] ] in
  let q = Ucq.of_cq (Cq.make ~answer:[ "w" ] [ atom "S" [ v "u"; v "w" ] ]) in
  let q', _ = Linear_rewrite.rewrite sigma q in
  check_int "no rewriting" 1 (List.length (Ucq.disjuncts q'))

(* Property: rewriting agrees with the chase on random linear ontologies.
   The generators are shared with the other suites (see Generators). *)
let gen_linear_sigma = Generators.gen_linear_sigma
let gen_small_db = Generators.gen_small_db
let gen_small_q = Generators.gen_small_q

let prop_rewrite_agrees_with_chase =
  QCheck.Test.make ~name:"rewriting = chase on random linear instances"
    ~count:80
    (QCheck.make
       ~print:(fun (s, db, q) ->
         Fmt.str "Σ=%a D=%a q=%a" (Fmt.list Tgd.pp) s Instance.pp db Ucq.pp q)
       QCheck.Gen.(triple gen_linear_sigma gen_small_db gen_small_q))
    (fun (sigma, db, q) ->
      let by_chase, saturated = Chase.certain ~max_level:7 sigma db q [] in
      let by_rewrite, complete = Linear_rewrite.entails sigma db q [] in
      if complete && (saturated || by_rewrite = false || by_chase) then
        (* when the chase did not saturate, only check the direction that
           remains sound: rewriting answers must be chase answers *)
        if saturated then by_chase = by_rewrite
        else (not by_rewrite) || by_chase
      else true)

let prop_chase_models_sigma =
  QCheck.Test.make ~name:"saturated chase models Σ" ~count:80
    (QCheck.make
       ~print:(fun (s, db) -> Fmt.str "Σ=%a D=%a" (Fmt.list Tgd.pp) s Instance.pp db)
       QCheck.Gen.(pair gen_linear_sigma gen_small_db))
    (fun (sigma, db) ->
      let r = Chase.run ~max_level:7 ~max_facts:500 sigma db in
      (not (Chase.saturated r)) || Tgd.satisfies_all (Chase.instance r) sigma)

let prop_ground_closure_sound =
  QCheck.Test.make ~name:"ground closure ⊆ bounded chase ground part (soundness)"
    ~count:60
    (QCheck.make
       ~print:(fun (s, db) -> Fmt.str "Σ=%a D=%a" (Fmt.list Tgd.pp) s Instance.pp db)
       QCheck.Gen.(pair gen_linear_sigma gen_small_db))
    (fun (sigma, db) ->
      let gc = Ground_closure.compute sigma db in
      let r = Chase.run ~max_level:10 ~max_facts:2000 sigma db in
      (* soundness always; completeness exactly when the chase saturated *)
      let sound = Instance.subset gc (Chase.instance r) in
      let complete_when_saturated =
        (not (Chase.saturated r)) || Instance.equal gc (Chase.ground_part r)
      in
      sound && complete_when_saturated)

(* The engine-based closure against the bag fixpoint it replaced, on
   guarded Σ whose chase need not terminate. *)
let prop_ground_closure_oracle =
  QCheck.Test.make ~name:"ground closure = bag-fixpoint oracle" ~count:1000
    Generators.arb_closure_case (fun (sigma, db) ->
      Instance.equal (Ground_closure.compute sigma db) (Bag_closure.compute sigma db))

(* The two routes that linearize Σ against the bounded chase, on
   guarded Σ whose chase need not terminate and that may mention a
   constant of Σ: equal to a saturated chase whenever they report
   themselves exact; otherwise the FPT route finds every answer the
   chase found, and so does the rewriting unless it reports itself
   inexact (a rewriting cut at its size cap may miss answers). The FPT
   route's two entry points agree: [answer_set] of the Boolean query is
   [[[]]] exactly when [certain] holds, with the same exactness. *)
let prop_linearized_routes =
  QCheck.Test.make ~name:"FPT and rewriting routes = chase" ~count:1000
    Generators.arb_constant_case (fun (sigma, db, q) ->
      let chase, saturated =
        Chase.certain ~max_level:7 ~max_facts:2000 sigma db q []
      in
      let fpt = fpt_route sigma db q [] in
      let set = Guarded_core.Omq_eval.answer_set ~fpt:true (omq sigma db q) db in
      let rw = Guarded_core.Guarded_rewrite.certain sigma db q [] in
      let exact_agrees (holds, exact) = (not exact) || holds = chase in
      (set.Guarded_core.Omq_eval.tuples = [ [] ], set.Guarded_core.Omq_eval.exact)
      = fpt
      &&
      if saturated then exact_agrees fpt && exact_agrees rw
      else (not chase) || (fst fpt && (fst rw || not (snd rw))))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_rewrite_agrees_with_chase; prop_chase_models_sigma; prop_ground_closure_sound ]
  @ [
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 25 |])
        prop_ground_closure_oracle;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 26 |])
        prop_linearized_routes;
    ]

let () =
  Alcotest.run "tgds"
    [
      ( "classes",
        [
          Alcotest.test_case "recognition" `Quick test_classes;
          Alcotest.test_case "boolean CQ as FG TGD" `Quick test_boolean_cq_as_fg_tgd;
          Alcotest.test_case "satisfaction" `Quick test_satisfaction;
        ] );
      ( "chase",
        [
          Alcotest.test_case "terminating + levels" `Quick test_chase_terminating;
          Alcotest.test_case "existentials/ground part" `Quick test_chase_existentials_and_ground_part;
          Alcotest.test_case "bounded nontermination" `Quick test_chase_nonterminating_bounded;
          Alcotest.test_case "oblivious semantics" `Quick test_chase_oblivious_fires_satisfied_heads;
          Alcotest.test_case "multi-head nulls" `Quick test_chase_multi_head_shares_nulls;
          Alcotest.test_case "empty body" `Quick test_chase_empty_body;
          Alcotest.test_case "full chase" `Quick test_full_chase;
        ] );
      ( "ground-closure",
        [
          Alcotest.test_case "terminating" `Quick test_ground_closure_terminating;
          Alcotest.test_case "infinite chase" `Quick test_ground_closure_infinite_chase;
          Alcotest.test_case "deep derivation" `Quick test_ground_closure_deep;
          Alcotest.test_case "context" `Quick test_ground_closure_context_matters;
          Alcotest.test_case "late context" `Quick test_ground_closure_context_added_late;
          Alcotest.test_case "rejects unguarded" `Quick test_ground_closure_rejects_unguarded;
          Alcotest.test_case "type_of" `Quick test_type_of;
          Alcotest.test_case "constants in Σ" `Quick test_ground_closure_constants;
        ] );
      ( "linearize",
        [
          Alcotest.test_case "simple" `Quick test_linearize_simple;
          Alcotest.test_case "matches chase" `Quick test_linearize_matches_direct_chase;
          Alcotest.test_case "constants in Σ" `Quick test_linearize_constants;
          Alcotest.test_case "bodiless rules" `Quick test_linearize_bodiless;
        ] );
      ( "linear-rewrite",
        [
          Alcotest.test_case "single head" `Quick test_rewrite_single_head;
          Alcotest.test_case "blocked by join" `Quick test_rewrite_blocked_by_join;
          Alcotest.test_case "multi-head piece" `Quick test_rewrite_multi_head_piece;
          Alcotest.test_case "chain" `Quick test_rewrite_chain;
          Alcotest.test_case "answer variables" `Quick test_rewrite_answer_variables;
          Alcotest.test_case "existential vs answer" `Quick test_rewrite_existential_cannot_touch_answer;
        ] );
      ("properties", qcheck_tests);
    ]
