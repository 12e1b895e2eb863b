(* Cross-engine validation matrix: every evaluation pipeline the library
   offers must agree on every (ontology, database, query) combination.
   Engines: bounded chase (Prop 3.1), FPT linearization (Prop 3.3(3)),
   two-stage rewriting (Thm D.1 route), OMQ→CQS reduction (Prop 5.8),
   linear UCQ rewriting (Prop D.2, where applicable), restricted chase. *)

open Relational
open Relational.Term
open Guarded_core
module Tgd = Tgds.Tgd
module Chase = Tgds.Chase

let check = Alcotest.(check bool)
let v = Term.var
let atom p args = Atom.make p args
let fact p args = Fact.make p (List.map (fun s -> Named s) args)
let bool_q atoms = Ucq.of_cq (Cq.make atoms)

type scenario = {
  name : string;
  sigma : Tgd.t list;
  db : Instance.t;
  queries : Ucq.t list;
}

let scenarios () =
  let lubm_sigma, lubm_db = Workload.lubm ~universities:1 () in
  let dl_sigma =
    Dl.to_tgds
      [
        Dl.Sub (Dl.Atomic "A", Dl.Exists (Dl.Role "r", Dl.Atomic "B"));
        Dl.Sub (Dl.Atomic "B", Dl.Atomic "C");
        Dl.Role_sub (Dl.Role "r", Dl.Role "s");
      ]
  in
  [
    {
      name = "university";
      sigma = Workload.university_ontology ();
      db = Instance.of_facts [ fact "Prof" [ "ada" ]; fact "Course" [ "ml" ] ];
      queries =
        [
          bool_q [ atom "Dept" [ v "d" ] ];
          bool_q [ atom "Teaches" [ v "x"; v "c" ]; atom "OfferedBy" [ v "c"; v "d" ] ];
          bool_q [ atom "Mgr" [ v "m" ] ];
          bool_q [ atom "Faculty" [ v "x" ]; atom "Prof" [ v "x" ] ];
        ];
    };
    {
      name = "lubm-1";
      sigma = lubm_sigma;
      db = lubm_db;
      queries =
        [
          bool_q [ atom "AdvisedBy" [ v "s"; v "a" ]; atom "Faculty" [ v "a" ] ];
          bool_q [ atom "Takes" [ v "s"; v "c" ]; atom "OfferedBy" [ v "c"; v "d" ] ];
          bool_q [ atom "Nothing" [ v "x" ] ];
        ];
    };
    {
      name = "dl-medical";
      sigma = dl_sigma;
      db = Instance.of_facts [ fact "A" [ "a0" ]; fact "r" [ "a0"; "b0" ] ];
      queries =
        [
          bool_q [ atom "B" [ v "x" ] ];
          bool_q [ atom "C" [ v "x" ] ];
          bool_q [ atom "s" [ v "x"; v "y" ]; atom "A" [ v "x" ] ];
        ];
    };
    {
      name = "manager (infinite chase)";
      sigma = Workload.manager_ontology ();
      db = Instance.of_facts [ fact "Emp" [ "eve" ] ];
      queries =
        [
          bool_q [ atom "Managed" [ v "x" ] ];
          bool_q [ atom "ReportsTo" [ v "x"; v "m" ]; atom "Managed" [ v "m" ] ];
          bool_q [ atom "ReportsTo" [ v "x"; v "x" ] ];
        ];
    };
  ]

(* The chase-based reference verdict; max_level high enough for every
   scenario's queries. *)
let reference sigma db q = fst (Chase.certain ~max_level:7 sigma db q [])

let test_engines_agree () =
  List.iter
    (fun sc ->
      let omq q = Omq.full_data_schema ~ontology:sc.sigma ~query:q in
      List.iter
        (fun q ->
          let expected = reference sc.sigma sc.db q in
          let ctx engine = Fmt.str "%s / %a / %s" sc.name Ucq.pp q engine in
          (* FPT linearization *)
          if Tgd.all_guarded sc.sigma then begin
            let fpt = Omq_eval.certain ~fpt:true ~max_level:10 (omq q) sc.db [] in
            if fpt.Omq_eval.exact then
              check (ctx "fpt") true (fpt.Omq_eval.holds = expected);
            (* two-stage rewriting *)
            let rw, rw_exact = Guarded_rewrite.holds sc.sigma sc.db q in
            if rw_exact then check (ctx "guarded-rewrite") true (rw = expected);
            (* OMQ→CQS reduction *)
            let d_star = Reductions.omq_to_cqs (omq q) sc.db in
            check (ctx "omq→cqs") true (Ucq.holds d_star q = expected)
          end;
          (* restricted chase *)
          let res = Chase.run ~policy:Chase.Restricted ~max_level:7 sc.sigma sc.db in
          if Chase.saturated res then
            check (ctx "restricted") true (Ucq.holds (Chase.instance res) q = expected);
          (* linear rewriting where applicable *)
          if Tgd.all_linear sc.sigma then begin
            let rw, complete = Tgds.Linear_rewrite.entails sc.sigma sc.db q [] in
            if complete then check (ctx "linear-rewrite") true (rw = expected)
          end)
        sc.queries)
    (scenarios ())

let test_lubm_scale_sanity () =
  let sigma, db = Workload.lubm ~universities:2 () in
  check "lubm db nonempty" true (Instance.size db > 40);
  check "lubm guarded" true (Tgd.all_guarded sigma);
  let q = bool_q [ atom "Student" [ v "s" ]; atom "AdvisedBy" [ v "s"; v "a" ] ] in
  let omq = Omq.full_data_schema ~ontology:sigma ~query:q in
  let r = Omq_eval.certain ~max_level:5 omq db [] in
  check "students certainly advised" true r.Omq_eval.holds

(* ------------------------------------------------------------------ *)
(* Randomized sweep of the clique reduction (the headline hardness)     *)
(* ------------------------------------------------------------------ *)

let test_clique_reduction_sweep_k2 () =
  (* k = 2 (edge detection) across 25 random graphs *)
  let d = Reductions.constraint_free_instance (Workload.path_cq 2) in
  List.iter
    (fun seed ->
      let graph = Workload.random_graph ~n:6 ~p:0.25 ~seed in
      match Reductions.clique_to_cqs d ~graph ~k:2 with
      | Some ci ->
          check
            (Fmt.str "seed %d" seed)
            true
            (Reductions.decide_clique ci = Qgraph.Graph.has_clique graph 2)
      | None -> Alcotest.fail "expected reduction instance")
    (List.init 25 Fun.id)

let test_clique_reduction_sweep_k3 () =
  (* k = 3 (triangle detection) across a dozen random graphs *)
  let d = Reductions.constraint_free_instance (Workload.grid_cq 3 3) in
  List.iter
    (fun seed ->
      let graph = Workload.random_graph ~n:7 ~p:0.3 ~seed:(seed * 13 + 1) in
      match Reductions.clique_to_cqs d ~graph ~k:3 with
      | Some ci ->
          check
            (Fmt.str "seed %d" seed)
            true
            (Reductions.decide_clique ci = Qgraph.Graph.has_clique graph 3)
      | None -> Alcotest.fail "expected reduction instance")
    (List.init 12 Fun.id)

let test_grohe_h0_always_hom () =
  (* item (1) of Theorem 7.1 across random graphs *)
  let d = Reductions.constraint_free_instance (Workload.grid_cq 3 3) in
  let dp' = Cq.canonical_db d.Reductions.p' in
  List.iter
    (fun seed ->
      let graph = Workload.random_graph ~n:6 ~p:0.4 ~seed:(seed * 7 + 3) in
      match Reductions.clique_to_cqs d ~graph ~k:3 with
      | Some ci ->
          check
            (Fmt.str "h0 hom, seed %d" seed)
            true
            (Grohe.h0_is_homomorphism ci.Reductions.d_star dp')
      | None -> Alcotest.fail "expected reduction instance")
    (List.init 8 Fun.id)

let () =
  Alcotest.run "matrix"
    [
      ( "cross-engine",
        [
          Alcotest.test_case "all engines agree" `Slow test_engines_agree;
          Alcotest.test_case "lubm sanity" `Quick test_lubm_scale_sanity;
          Alcotest.test_case "clique sweep k=2" `Quick test_clique_reduction_sweep_k2;
          Alcotest.test_case "clique sweep k=3" `Slow test_clique_reduction_sweep_k3;
          Alcotest.test_case "h0 always a hom" `Slow test_grohe_h0_always_hom;
        ] );
    ]
