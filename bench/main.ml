(* Benchmark harness regenerating every experiment of EXPERIMENTS.md.

   The paper (PODS 2020) is pure theory — no tables or figures — so each
   experiment E1–E12 validates the complexity *shape* asserted by a
   numbered statement (see DESIGN.md §3). Default sizes complete in a
   couple of minutes; pass --full for the larger sweeps recorded in
   EXPERIMENTS.md.

   Usage:
     dune exec bench/main.exe                 # all experiments, small sizes
     dune exec bench/main.exe -- e1 e5        # a selection
     dune exec bench/main.exe -- --full       # larger sweeps
     dune exec bench/main.exe -- micro        # Bechamel micro-benchmarks *)

open Relational
open Guarded_core

let v = Term.var
let atom p args = Atom.make p args
let fact p args = Fact.make p (List.map (fun s -> Term.Named s) args)

(* ------------------------------------------------------------------ *)
(* Timing                                                               *)
(* ------------------------------------------------------------------ *)

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* median of [repeat] runs, in seconds *)
let measure ?(repeat = 3) f =
  let times =
    List.init repeat (fun _ ->
        let _, t = time_once f in
        t)
    |> List.sort compare
  in
  List.nth times (repeat / 2)

let header title statement shape =
  Fmt.pr "@.=== %s ===@." title;
  Fmt.pr "paper: %s@.expected shape: %s@.@." statement shape

let row fmt = Fmt.pr fmt

(* ------------------------------------------------------------------ *)
(* E1 — Proposition 2.1: bounded-treewidth CQ evaluation                *)
(* ------------------------------------------------------------------ *)

let e1 ~full () =
  header "E1: CQ_k evaluation scaling"
    "Proposition 2.1: c in q(D) for q in CQ_k in O(||D||^{k+1}*||q||)"
    "time polynomial in ||D||, roughly linear in ||q||; decomposed ~ naive on paths";
  let sizes = if full then [ 50; 100; 200; 400; 800 ] else [ 50; 100; 200 ] in
  row "  %8s %12s %14s %14s@." "||D||" "query" "tw-eval(s)" "naive(s)";
  List.iter
    (fun n ->
      let db = Workload.path_db ~pred:"X" n in
      List.iter
        (fun (name, q) ->
          let t_tw = measure (fun () -> ignore (Tw_eval.holds db q)) in
          let t_naive = measure (fun () -> ignore (Cq.holds db q)) in
          row "  %8d %12s %14.5f %14.5f@." n name t_tw t_naive)
        [
          ("path-4", Workload.path_cq ~pred:"X" 4);
          ("path-8", Workload.path_cq ~pred:"X" 8);
          ("star-4", Workload.star_cq ~pred:"X" 4);
        ])
    sizes

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 4.1 machinery: evaluation via the core                  *)
(* ------------------------------------------------------------------ *)

let e2 ~full () =
  header "E2: semantically tree-like CQs"
    "Theorem 4.1 / [20]: q in CQ=k iff core(q) in CQ_k; evaluating the core is poly"
    "high-treewidth-looking queries with low-treewidth cores evaluate fast via the core";
  (* a C4 query that folds to one edge, replicated into a wide query *)
  let folding_query m =
    let atoms =
      List.concat_map
        (fun i ->
          let x j = Printf.sprintf "x%d_%d" i j in
          [
            atom "E" [ v (x 1); v (x 2) ];
            atom "E" [ v (x 3); v (x 2) ];
            atom "E" [ v (x 3); v (x 4) ];
            atom "E" [ v (x 1); v (x 4) ];
          ])
        (List.init m Fun.id)
    in
    Cq.make atoms
  in
  let db = Workload.random_binary_db ~dom:(if full then 60 else 25)
      ~size:(if full then 240 else 100) ~seed:3 () in
  row "  %6s %10s %10s %14s %14s %12s@." "copies" "tw(q)" "tw(core)" "naive(s)"
    "via core(s)" "core time(s)";
  List.iter
    (fun m ->
      let q = folding_query m in
      let core, t_core = time_once (fun () -> Cq_core.core q) in
      let t_naive = measure (fun () -> ignore (Cq.holds db q)) in
      let t_via = measure (fun () -> ignore (Cq.holds db core)) in
      row "  %6d %10d %10d %14.5f %14.5f %12.5f@." m (Cq.treewidth q)
        (Cq.treewidth core) t_naive t_via t_core)
    (if full then [ 1; 2; 3; 4 ] else [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 5.3: the dichotomy in the parameter                     *)
(* ------------------------------------------------------------------ *)

let e4 ~full () =
  header "E4: bounded vs unbounded treewidth query families"
    "Theorems 5.3/5.7: evaluation is fpt iff the class is UCQk-equivalent for some k"
    "grid family (tw = n): time explodes with n; path family (tw = 1): flat in n";
  let g = if full then 7 else 6 in
  let db = Workload.grid_db g g in
  let ns = if full then [ 2; 3; 4; 5 ] else [ 2; 3; 4 ] in
  row "  %4s %8s %16s %8s %16s@." "n" "tw-grid" "grid query(s)" "tw-path" "path query(s)";
  List.iter
    (fun n ->
      let grid_q = Workload.grid_cq n n in
      let path_q = Workload.path_cq ~pred:"X" (min (g - 1) n) in
      let t_grid = measure ~repeat:1 (fun () -> ignore (Tw_eval.holds db grid_q)) in
      let t_path = measure ~repeat:1 (fun () -> ignore (Tw_eval.holds db path_q)) in
      row "  %4d %8d %16.4f %8d %16.4f@." n (Cq.treewidth grid_q) t_grid
        (Cq.treewidth path_q) t_path)
    ns

(* ------------------------------------------------------------------ *)
(* E5 — Theorems 6.1/7.1/5.13: p-Clique via the reduction               *)
(* ------------------------------------------------------------------ *)

let e5 ~full () =
  header "E5: p-Clique through CQS evaluation"
    "Theorem 5.13 via Theorem 7.1: D* built in f(k)*poly(||G||); decides k-clique"
    "D* size grows polynomially in ||G||; verdicts match direct search";
  let q = Workload.grid_cq 3 3 in
  let d = Reductions.constraint_free_instance q in
  let ns = if full then [ 6; 8; 10; 12; 14 ] else [ 6; 8; 10 ] in
  row "  %4s %8s %10s %12s %12s %10s %10s@." "|V|" "|E|" "D* facts" "build(s)"
    "decide(s)" "via-CQS" "direct";
  List.iter
    (fun n ->
      let graph = Workload.random_graph ~n ~p:0.35 ~seed:(n * 7) in
      match
        time_once (fun () -> Reductions.clique_to_cqs d ~graph ~k:3)
      with
      | None, _ -> row "  %4d: no grid minor@." n
      | Some ci, t_build ->
          let via, t_dec = time_once (fun () -> Reductions.decide_clique ci) in
          let direct = Qgraph.Graph.has_clique graph 3 in
          row "  %4d %8d %10d %12.4f %12.4f %10b %10b@." n
            (Qgraph.Graph.num_edges graph)
            (Instance.size ci.Reductions.d_star.Grohe.db)
            t_build t_dec via direct)
    ns

(* ------------------------------------------------------------------ *)
(* E6 — Proposition 5.8: OMQ -> CQS                                     *)
(* ------------------------------------------------------------------ *)

let e6 ~full () =
  header "E6: the OMQ -> CQS reduction"
    "Proposition 5.8 / Lemma 6.8: D* computable in ||D||^{O(1)}*f(||Q||); answers preserved"
    "build time polynomial in ||D||; open-world = closed-world on D*";
  let sigma = Workload.manager_ontology () in
  let q = Ucq.of_cq (Cq.make [ atom "ReportsTo" [ v "x"; v "m" ]; atom "Managed" [ v "m" ] ]) in
  let omq = Omq.full_data_schema ~ontology:sigma ~query:q in
  let sizes = if full then [ 2; 4; 8; 16 ] else [ 2; 4; 8 ] in
  row "  %8s %10s %12s %10s@." "||D||" "D* facts" "build(s)" "preserved";
  List.iter
    (fun n ->
      let db =
        Instance.of_facts (List.init n (fun i -> fact "Emp" [ "e" ^ string_of_int i ]))
      in
      let d_star, t = time_once (fun () -> Reductions.omq_to_cqs omq db) in
      let open_w = (Omq_eval.certain ~max_level:6 omq db []).Omq_eval.holds in
      let closed_w = Ucq.holds d_star q in
      row "  %8d %10d %12.4f %10b@." n (Instance.size d_star) t (open_w = closed_w))
    sizes

(* ------------------------------------------------------------------ *)
(* E7 — Lemmas A.1/A.2/A.4: chase growth bounds                         *)
(* ------------------------------------------------------------------ *)

(* The Lemma A.4 bound on the guarded-full chase: [|D| · |T| · ar(T)^ar(T)]. *)
let size_bound sigma db =
  let t = Tgds.Tgd.schema_of_set sigma in
  let ar = max 1 (Schema.ar t) in
  let rec pow acc n = if n = 0 then acc else pow (acc * ar) (n - 1) in
  Instance.size db * max 1 (Schema.cardinal t) * pow 1 ar

let e7 ~full () =
  header "E7: level-bounded chase size vs the Lemma A.2 bound"
    "Lemma A.2: |chase^l| <= |D|*(|S|*H+1)^l for linear S; Lemma A.4: guarded-full chase poly"
    "measured sizes stay below the bound; guarded-full chase ~ linear in |D|";
  let depth = if full then 6 else 4 in
  let sigma = Workload.linear_chain ~depth in
  let db = Instance.of_facts [ fact "R0" [ "a"; "b" ] ] in
  let h = 1 in
  row "  linear chain (depth %d):@." depth;
  row "  %6s %10s %14s@." "level" "facts" "A.2 bound";
  List.iter
    (fun l ->
      let r = Tgds.Chase.run ~max_level:l sigma db in
      let bound =
        float_of_int (Instance.size db)
        *. (float_of_int ((List.length sigma * h) + 1) ** float_of_int l)
      in
      row "  %6d %10d %14.0f@." l (Instance.size (Tgds.Chase.instance r)) bound)
    (List.init depth (fun i -> i + 1));
  row "@.  guarded-full saturation (Lemma A.4):@.";
  row "  %8s %10s %12s %12s@." "||D||" "facts" "bound" "time(s)";
  let gf = Workload.guarded_full_chain ~depth:3 in
  List.iter
    (fun n ->
      let db = Workload.path_db ~pred:"E" n in
      let sat, t = time_once (fun () -> Tgds.Chase.chase gf db) in
      row "  %8d %10d %12d %12.4f@." n (Instance.size sat)
        (size_bound gf db) t)
    (if full then [ 20; 40; 80; 160 ] else [ 20; 40; 80 ])

(* ------------------------------------------------------------------ *)
(* E8 — Proposition D.2: UCQ rewriting for linear TGDs                  *)
(* ------------------------------------------------------------------ *)

let e8 ~full () =
  header "E8: UCQ rewriting vs chase for inclusion-dependency chains"
    "Proposition D.2: linear S is UCQ-rewritable: q(chase(D,S)) = q'(D)"
    "rewriting size grows with chain depth; query answering needs no chase";
  let depths = if full then [ 1; 2; 3; 4; 5 ] else [ 1; 2; 3 ] in
  row "  %6s %12s %12s %14s %14s@." "depth" "disjuncts" "rewrite(s)" "eval-rw(s)" "chase-eval(s)";
  List.iter
    (fun depth ->
      let sigma = Workload.linear_chain ~depth in
      let q =
        Ucq.of_cq
          (Cq.make [ atom (Printf.sprintf "R%d" depth) [ v "x"; v "y" ] ])
      in
      let db = Instance.of_facts [ fact "R0" [ "a"; "b" ] ] in
      let (q', _), t_rw = time_once (fun () -> Tgds.Linear_rewrite.rewrite sigma q) in
      let t_eval = measure (fun () -> ignore (Ucq.holds db q')) in
      let t_chase =
        measure ~repeat:1 (fun () ->
            ignore (Tgds.Chase.certain ~max_level:(depth + 1) sigma db q []))
      in
      row "  %6d %12d %12.4f %14.5f %14.5f@." depth
        (List.length (Ucq.disjuncts q'))
        t_rw t_eval t_chase)
    depths

(* ------------------------------------------------------------------ *)
(* E9 — Theorems 5.1/5.6/5.10: the meta problem                         *)
(* ------------------------------------------------------------------ *)

let e9 ~full () =
  header "E9: deciding uniform UCQk-equivalence"
    "Theorems 5.6/5.10: the meta problem via UCQk-approximation + Prop 4.5 containment"
    "cost grows with query size (contraction count); verdicts match the paper's examples";
  let sigma = [ Tgds.Tgd.make ~body:[ atom "R2" [ v "x" ] ] ~head:[ atom "R4" [ v "x" ] ] ] in
  let ex44 =
    Cq.make
      [
        atom "P" [ v "x2"; v "x1" ]; atom "P" [ v "x4"; v "x1" ];
        atom "P" [ v "x2"; v "x3" ]; atom "P" [ v "x4"; v "x3" ];
        atom "R1" [ v "x1" ]; atom "R2" [ v "x2" ];
        atom "R3" [ v "x3" ]; atom "R4" [ v "x4" ];
      ]
  in
  let cases =
    [
      ("example 4.4 + S", sigma, ex44, 1);
      ("example 4.4, no S", [], ex44, 1);
      ("C4 query, no S", [], Workload.grid_cq 2 2, 1);
    ]
    @ if full then [ ("3x3 grid, no S", [], Workload.grid_cq 3 3, 2) ] else []
  in
  row "  %20s %4s %s %12s@." "case" "k" "verdict" "time(s)";
  List.iter
    (fun (name, sg, q, k) ->
      let s = Cqs.make ~constraints:sg ~query:(Ucq.of_cq q) in
      let (verdict, _), t =
        time_once (fun () -> Equivalence.cqs_uniformly_ucqk_equivalent k s)
      in
      row "  %20s %4d %a %12.4f@." name k Sigma_containment.pp_verdict verdict t)
    cases

(* ------------------------------------------------------------------ *)
(* E10 — §3.2 / Theorem 5.7: constraint-aware optimization              *)
(* ------------------------------------------------------------------ *)

let e10 ~full () =
  header "E10: semantic optimization under integrity constraints"
    "§1/§3.2: the promise D |= S licenses removing S-redundant joins"
    "optimized query evaluates faster; answers unchanged on admissible data";
  let constraints = Workload.referential_constraints () in
  let q =
    Ucq.of_cq
      (Cq.make ~answer:[ "l" ]
         [
           atom "Line" [ v "l"; v "o" ];
           atom "Order" [ v "o"; v "c" ];
           atom "Customer" [ v "c" ];
         ])
  in
  let s = Cqs.make ~constraints ~query:q in
  let s_opt, t_opt = time_once (fun () -> Cqs_eval.optimize s) in
  row "  one-time optimization: %.4fs; query %d atoms -> %d atoms@.@." t_opt
    (List.length (Cq.atoms (List.hd (Ucq.disjuncts q))))
    (List.length (Cq.atoms (List.hd (Ucq.disjuncts (Cqs.query s_opt)))));
  let sizes = if full then [ 50; 100; 200; 400 ] else [ 50; 100; 200 ] in
  row "  %8s %14s %14s %10s@." "||D||" "original(s)" "optimized(s)" "agree";
  List.iter
    (fun n ->
      let facts =
        List.concat_map
          (fun i ->
            let c = "c" ^ string_of_int i and o = "o" ^ string_of_int i in
            [ fact "Customer" [ c ]; fact "Order" [ o; c ]; fact "Line" [ "l" ^ string_of_int i; o ] ])
          (List.init n Fun.id)
      in
      let db = Instance.of_facts facts in
      let t1 = measure (fun () -> ignore (Cqs_eval.answers s db)) in
      let t2 = measure (fun () -> ignore (Cqs_eval.answers s_opt db)) in
      let agree = Cqs_eval.answers s db = Cqs_eval.answers s_opt db in
      row "  %8d %14.4f %14.4f %10b@." (Instance.size db) t1 t2 agree)
    sizes

(* ------------------------------------------------------------------ *)
(* E11 — Lemma A.3: linearization                                       *)
(* ------------------------------------------------------------------ *)

let e11 ~full () =
  header "E11: linearization of guarded ontologies"
    "Lemma A.3: D* in ||D||^{O(1)}*f(||Q||); S* independent of the data"
    "type count driven by S, not D; D* grows linearly with D";
  let ontology = Workload.university_ontology () in
  let sizes = if full then [ 4; 8; 16; 32 ] else [ 4; 8; 16 ] in
  row "  %8s %10s %10s %10s %10s@." "||D||" "D* facts" "types" "rules" "time(s)";
  List.iter
    (fun n ->
      let db =
        Instance.of_facts
          (List.init n (fun i -> fact "Prof" [ "p" ^ string_of_int i ]))
      in
      let lin, t = time_once (fun () -> Tgds.Linearize.make ontology db) in
      row "  %8d %10d %10d %10d %10.4f@." n
        (Instance.size lin.Tgds.Linearize.db_star)
        lin.Tgds.Linearize.types
        (List.length lin.Tgds.Linearize.sigma_star)
        t)
    sizes

(* ------------------------------------------------------------------ *)
(* E12 — Theorem 6.7: finite witnesses                                  *)
(* ------------------------------------------------------------------ *)

let e12 ~full () =
  header "E12: finite witnesses for strong finite controllability"
    "Definition 6.5 / Theorem 6.7: M(D,S,n) finite, models S, answers <=n-var UCQs like the chase"
    "witness size grows with n; always a model; agreement with the bounded chase";
  let sigma = Workload.manager_ontology () in
  let db = Instance.of_facts [ fact "Emp" [ "eve" ] ] in
  let chase = Tgds.Chase.chase ~max_level:8 sigma db in
  let probes =
    [
      Ucq.of_cq (Cq.make [ atom "ReportsTo" [ v "x"; v "x" ] ]);
      Ucq.of_cq
        (Cq.make [ atom "ReportsTo" [ v "x"; v "y" ]; atom "ReportsTo" [ v "y"; v "x" ] ]);
      Ucq.of_cq (Cq.make [ atom "Managed" [ v "x" ] ]);
    ]
  in
  let ns = if full then [ 1; 2; 3; 4; 5 ] else [ 1; 2; 3 ] in
  let agrees m chase =
    List.for_all (fun q -> Ucq.holds m q = Ucq.holds chase q) probes
  in
  row "  %4s %10s %10s %10s %12s@." "n" "|M|" "model" "agrees" "time(s)";
  List.iter
    (fun n ->
      let m, t = time_once (fun () -> Finite_witness.build ~n sigma db) in
      row "  %4d %10d %10b %10b %12.4f@." n (Instance.size m)
        (Finite_witness.verify sigma db m)
        (agrees m chase) t)
    ns;
  (* the same ontology over many employees: the witness's cost against
     the size of what it builds *)
  row "@.  n = 3 over k employees (time: best of 5):@.";
  row "  %9s %10s %10s %10s %12s@." "employees" "|M|" "model" "agrees" "time(s)";
  List.iter
    (fun k ->
      let db =
        Instance.of_facts (List.init k (fun i -> fact "Emp" [ "e" ^ string_of_int i ]))
      in
      let chase = Tgds.Chase.chase ~max_level:8 sigma db in
      let m = Finite_witness.build ~n:3 sigma db in
      let t =
        List.init 5 (fun _ -> snd (time_once (fun () -> Finite_witness.build ~n:3 sigma db)))
        |> List.fold_left min infinity
      in
      row "  %9d %10d %10b %10b %12.4f@." k (Instance.size m)
        (Finite_witness.verify sigma db m)
        (agrees m chase) t)
    [ 1; 100; 400; 1600 ]

(* ------------------------------------------------------------------ *)
(* E13 — design-choice ablations (DESIGN.md §4)                         *)
(* ------------------------------------------------------------------ *)

let e13 ~full () =
  header "E13: ablations of the engine's design choices"
    "not a paper claim — validates the implementation choices DESIGN.md calls out"
    "oblivious chase larger than restricted; dynamic atom ordering beats static on joins";
  (* (a) oblivious (paper semantics) vs restricted chase *)
  row "  chase policy (university ontology):@.";
  row "  %8s %14s %14s %12s %12s@." "||D||" "obliv facts" "restr facts"
    "obliv(s)" "restr(s)";
  let sizes = if full then [ 4; 8; 16; 32 ] else [ 4; 8; 16 ] in
  let uni = Workload.university_ontology () in
  List.iter
    (fun n ->
      let db =
        Instance.of_facts
          (List.concat_map
             (fun i ->
               [ fact "Prof" [ "p" ^ string_of_int i ];
                 fact "Teaches" [ "p" ^ string_of_int i; "c" ^ string_of_int i ] ])
             (List.init n Fun.id))
      in
      let ro, to_ =
        time_once (fun () -> Tgds.Chase.run ~policy:Tgds.Chase.Oblivious uni db)
      in
      let rr, tr =
        time_once (fun () -> Tgds.Chase.run ~policy:Tgds.Chase.Restricted uni db)
      in
      row "  %8d %14d %14d %12.4f %12.4f@." (Instance.size db)
        (Instance.size (Tgds.Chase.instance ro))
        (Instance.size (Tgds.Chase.instance rr))
        to_ tr)
    sizes;
  (* (b) homomorphism atom ordering *)
  row "@.  homomorphism search ordering (grid query over grid db):@.";
  row "  %10s %14s %14s@." "query" "dynamic(s)" "static(s)";
  let db = Workload.grid_db (if full then 6 else 5) (if full then 6 else 5) in
  List.iter
    (fun (name, q) ->
      let atoms = Cq.atoms q in
      let t_dyn =
        measure ~repeat:1 (fun () -> ignore (Homomorphism.exists atoms db))
      in
      let t_sta =
        measure ~repeat:1 (fun () ->
            ignore
              (Homomorphism.fold_homs ~ordering:`Static atoms db
                 (fun _ _ -> true)
                 false))
      in
      row "  %10s %14.4f %14.4f@." name t_dyn t_sta)
    [
      ("grid-2x2", Workload.grid_cq 2 2);
      ("grid-3x3", Workload.grid_cq 3 3);
      ("path-6", Workload.path_cq ~pred:"X" 5);
    ]

(* ------------------------------------------------------------------ *)
(* E14 — the Appendix C.5 exponential gadget                            *)
(* ------------------------------------------------------------------ *)

let e14 ~full () =
  header "E14: the Appendix C.5 counter gadget"
    "Appendix C.5 / Lemma C.8: a guarded 6-ary ontology forces S-paths of length 2^n - 1"
    "chase size and path length double with n while the ontology grows quadratically";
  let ns = if full then [ 2; 3; 4; 5 ] else [ 2; 3; 4 ] in
  row "  %4s %8s %12s %12s %12s@." "n" "rules" "chase facts" "path (2^n-1)" "time(s)";
  List.iter
    (fun n ->
      let sigma = C5_gadget.ontology ~n in
      let r, t =
        time_once (fun () ->
            Tgds.Chase.run ~max_level:200 ~max_facts:200_000 sigma
              (C5_gadget.database `T1))
      in
      row "  %4d %8d %12d %12d %12.4f@." n (List.length sigma)
        (Instance.size (Tgds.Chase.instance r))
        (C5_gadget.s_path_length (Tgds.Chase.instance r))
        t)
    ns

(* ------------------------------------------------------------------ *)
(* BENCH_engine.json rows: one named producer per row (E3, E15–E22)    *)
(* ------------------------------------------------------------------ *)

(* A case names one row of BENCH_engine.json and the producer that
   measures it. The experiment owning the row runs the producer to write
   it, and [gate] reruns the same producer to judge it, so the baseline
   and its check are one piece of code. *)
type case = string * (unit -> Obs.Json.t)

let case workload fields : case =
  ( workload,
    fun () -> Obs.Json.Obj (("workload", Obs.Json.String workload) :: fields ()) )

let ints l = Obs.Json.List (List.map (fun n -> Obs.Json.Int n) l)
let floats l = Obs.Json.List (List.map (fun s -> Obs.Json.Float s) l)

(* The machine-independent work a metrics registry has counted; with
   [since] (an earlier [work] reading of the same registry), only the
   work done after it. *)
let work m =
  (Obs.Metrics.count m "index.probes", Obs.Metrics.count m "joiner.candidates")

let work_fields ?(since = (0, 0)) m =
  let probes, candidates = work m in
  Obs.Json.
    [
      ("index_probes", Int (probes - fst since));
      ("joiner_candidates", Int (candidates - snd since));
    ]

let rec show = function
  | Obs.Json.Int n -> string_of_int n
  | Obs.Json.Float f -> Printf.sprintf "%.6g" f
  | Obs.Json.Bool b -> string_of_bool b
  | Obs.Json.List l -> "[" ^ String.concat "," (List.map show l) ^ "]"
  | j -> Obs.Json.to_string j

let workload_of r =
  match Obs.Json.member "workload" r with
  | Some (Obs.Json.String w) -> Some w
  | _ -> None

(* The committed rows: [None] when BENCH_engine.json is missing,
   [Some (Error _)] when it is not a JSON list. *)
let read_bench_engine () =
  match open_in_bin "BENCH_engine.json" with
  | exception Sys_error _ -> None
  | ic ->
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Some
        (match Obs.Json.parse s with
        | Ok (Obs.Json.List rows) -> Ok rows
        | Ok _ -> Error "is not a JSON list"
        | Error e -> Error ("does not parse: " ^ e))

(* BENCH_engine.json is shared between E3, E15, E17, E18, E20 and E22. Each
   run replaces exactly the rows its case table names at the size that
   ran and keeps every other row, so regenerating one experiment never
   drops another's baselines, and a default-size run keeps the rows only
   [--full] produces. Every written row is stamped with the host's core
   count and OCaml version. *)
let update_bench_engine cases ~full rows =
  let owned = List.map fst (cases ~full) in
  let kept =
    match read_bench_engine () with
    | Some (Ok existing) ->
        List.filter
          (fun r ->
            match workload_of r with
            | Some w -> not (List.mem w owned)
            | None -> false)
          existing
    | None | Some (Error _) -> []
  in
  let stamp = function
    | Obs.Json.Obj fields ->
        Obs.Json.Obj
          (fields
          @ [
              ("cores", Obs.Json.Int (Domain.recommended_domain_count ()));
              ("ocaml", Obs.Json.String Sys.ocaml_version);
            ])
    | r -> r
  in
  let oc = open_out "BENCH_engine.json" in
  Obs.Json.to_channel oc (Obs.Json.List (kept @ List.map stamp rows));
  close_out oc;
  row "@.  wrote BENCH_engine.json@."

(* Run an experiment's cases at the chosen size, printing the [cols]
   fields of each row as it lands, then write the rows. *)
let run_cases cases ~cols ~full =
  let line name cells =
    row "  %-28s%s@." name
      (String.concat ""
         (List.map2
            (fun c s -> Printf.sprintf " %*s" (max 10 (String.length c)) s)
            cols cells))
  in
  line "workload" cols;
  let rows =
    List.map
      (fun (name, produce) ->
        let r = produce () in
        line name
          (List.map
             (fun c -> Option.fold ~none:"-" ~some:show (Obs.Json.member c r))
             cols);
        r)
      (cases ~full)
  in
  update_bench_engine cases ~full rows

(* ------------------------------------------------------------------ *)
(* E3 — Proposition 3.3(3): FPT OMQ evaluation                          *)
(* ------------------------------------------------------------------ *)

(* E3's OMQ: the university ontology, whose chase is finite, and a
   Boolean join over derived atoms; the data is ‖D‖/2 [Prof] and ‖D‖/2
   [Course] facts. *)
let e3_omq () =
  let ontology = Workload.university_ontology () in
  let q =
    Ucq.of_cq
      (Cq.make [ atom "Teaches" [ v "x"; v "c" ]; atom "OfferedBy" [ v "c"; v "d" ] ])
  in
  Omq.full_data_schema ~ontology ~query:q

let e3_db n =
  Instance.of_facts
    (List.concat_map
       (fun i ->
         [ fact "Prof" [ "p" ^ string_of_int i ]; fact "Course" [ "c" ^ string_of_int i ] ])
       (List.init n Fun.id))

(* One row: the chase route ([baseline_s]) against the FPT route
   ([fpt_s]: ground closure, linearization, linear chase), with the sizes
   of the FPT route's intermediate objects, the Σ-type count (the
   f(‖Σ‖) part) and the work of the linear chase over D*, run as
   [certain_fpt] runs it. *)
let e3_row n () =
  let omq = e3_omq () and db = e3_db n in
  let sigma = Omq.ontology omq in
  let closure = Tgds.Ground_closure.compute sigma db in
  let lin = Tgds.Linearize.make sigma db in
  let linear =
    Tgds.Chase.run ~max_level:10 lin.Tgds.Linearize.sigma_star
      lin.Tgds.Linearize.db_star
  in
  let er = Option.get (Tgds.Chase.engine_result linear) in
  let holds = (Omq_eval.certain_fpt omq db []).Omq_eval.holds in
  let closure_s =
    measure (fun () -> ignore (Tgds.Ground_closure.compute sigma db))
  in
  let baseline_s = measure (fun () -> ignore (Omq_eval.certain omq db [])) in
  let fpt_s = measure (fun () -> ignore (Omq_eval.certain_fpt omq db [])) in
  Obs.Json.
    [
      ("db_facts", Int (Instance.size db));
      ("closure_facts", Int (Instance.size closure));
      ("db_star_facts", Int (Instance.size lin.Tgds.Linearize.db_star));
      ("sigma_star_rules", Int (List.length lin.Tgds.Linearize.sigma_star));
      ("types", Int lin.Tgds.Linearize.types);
      ("triggers", Int er.Engine.Saturate.triggers_fired);
      ("holds", Bool holds);
      ("baseline_s", Float baseline_s);
      ("closure_s", Float closure_s);
      ("fpt_s", Float fpt_s);
    ]
  @ work_fields (Engine.Index.metrics (Tgds.Chase.index linear))

let e3_cases ~full =
  List.map
    (fun n -> case (Printf.sprintf "e3-fpt-%d" (2 * n)) (e3_row n))
    (if full then [ 5; 10; 20; 40; 80; 320; 640; 1280 ] else [ 5; 10; 20; 80 ])

let e3 ~full () =
  header "E3: FPT evaluation of guarded OMQs"
    "Proposition 3.3(3): (G,UCQ_k) evaluation in ||D||^{O(1)} * f(||Q||)"
    "fixed OMQ, growing data: time grows polynomially (near-linearly) in ||D||";
  run_cases e3_cases ~full
    ~cols:
      [
        "db_facts"; "closure_facts"; "db_star_facts"; "sigma_star_rules";
        "types"; "triggers"; "holds"; "baseline_s"; "closure_s"; "fpt_s";
      ]

(* ------------------------------------------------------------------ *)
(* E15 — indexed saturation vs the naive chase oracle (test/oracle)    *)
(* ------------------------------------------------------------------ *)

let e15_row ~sigma ~db ~max_level () =
  let t_idx =
    measure ~repeat:1 (fun () -> ignore (Tgds.Chase.run ~max_level sigma db))
  in
  (* words per chased fact; the minor heap is flushed before the second
     reading so promotions are counted. The null supply restarts, so the
     store's null-indexed symbol column, and with it the reading, does
     not depend on the nulls earlier runs in the process invented. *)
  Term.reset_nulls ();
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let r = Tgds.Chase.run ~max_level sigma db in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  let chased = Instance.size (Tgds.Chase.instance r) in
  let per_fact w1 w0 = Obs.Json.Float ((w1 -. w0) /. float_of_int chased) in
  let t_naive =
    measure ~repeat:1 (fun () -> ignore (Naive_chase.run ~max_level sigma db))
  in
  let er = Option.get (Tgds.Chase.engine_result r) in
  Obs.Json.
    [
      ("db_facts", Int (Instance.size db));
      ("chase_facts", Int chased);
      ("triggers", Int er.Engine.Saturate.triggers_fired);
      ("naive_s", Float t_naive);
      ("indexed_s", Float t_idx);
      ("speedup", Float (t_naive /. t_idx));
      (* per-level breakdown: fact growth from the s-levels, durations
         from the saturation span's [level] children *)
      ("facts_per_level", ints (Tgds.Chase.facts_per_level r));
      ( "level_s",
        floats
          (List.map Obs.Span.elapsed
             (Obs.Span.children er.Engine.Saturate.span)) );
      ("minor_words_per_fact", per_fact s1.Gc.minor_words s0.Gc.minor_words);
      ("major_words_per_fact", per_fact s1.Gc.major_words s0.Gc.major_words);
    ]
  @ work_fields (Engine.Index.metrics (Tgds.Chase.index r))

let e15_cases ~full =
  List.map
    (fun u ->
      case (Printf.sprintf "lubm-%d" u) (fun () ->
          let sigma, db = Workload.lubm ~universities:u () in
          e15_row ~sigma ~db ~max_level:6 ()))
    (if full then [ 10; 40; 160; 640 ] else [ 10; 40; 160 ])
  @ List.map
      (fun n ->
        case (Printf.sprintf "full-chain-%d" n) (fun () ->
            e15_row
              ~sigma:(Workload.guarded_full_chain ~depth:4)
              ~db:(Workload.path_db ~pred:"E" n) ~max_level:max_int ()))
      (if full then [ 200; 800; 2000; 4000 ] else [ 200; 800; 2000 ])

let e15 ~full () =
  header "E15: semi-naive indexed chase vs naive re-enumeration"
    "not a paper claim — ablation of the lib/engine saturation engine (DESIGN.md §2.7)"
    "indexed time grows ~linearly with derived facts; naive re-scans every level";
  run_cases e15_cases ~full
    ~cols:
      [
        "db_facts"; "chase_facts"; "triggers"; "naive_s"; "indexed_s";
        "speedup"; "minor_words_per_fact"; "major_words_per_fact";
      ]

(* ------------------------------------------------------------------ *)
(* E17 — streaming answer enumeration vs generate-and-test              *)
(* ------------------------------------------------------------------ *)

(* The E17 workload family: a path database E(c1,c2), E(c2,c3), … chased
   with the copy rule E(x,y) -> R(x,y); queries of arity 0–3 over E/R.
   Answer sets are sparse (O(|adom|) tuples) while generate-and-test
   entailment-checks |adom|^arity candidates, so the asymptotic gap the
   enumerator removes is visible at small domains already. *)
let e17_sigma =
  [
    Tgds.Tgd.make
      ~body:[ atom "E" [ v "x"; v "y" ] ]
      ~head:[ atom "R" [ v "x"; v "y" ] ];
  ]

let e17_query = function
  | 0 -> Ucq.of_cq (Cq.make [ atom "E" [ v "x"; v "y" ] ])
  | 1 -> Ucq.of_cq (Cq.make ~answer:[ "x" ] [ atom "E" [ v "x"; v "y" ] ])
  | 2 ->
      Ucq.of_cq
        (Cq.make ~answer:[ "x"; "z" ]
           [ atom "R" [ v "x"; v "y" ]; atom "E" [ v "y"; v "z" ] ])
  | 3 ->
      Ucq.of_cq
        (Cq.make ~answer:[ "x"; "y"; "z" ]
           [ atom "E" [ v "x"; v "y" ]; atom "E" [ v "y"; v "z" ] ])
  | k -> invalid_arg (Printf.sprintf "e17_query: arity %d" k)

(* The seed generate-and-test evaluation, kept verbatim as the oracle:
   every |adom|^arity candidate tuple, entailment-checked one by one. *)
let e17_generate_and_test idx query db =
  let dom = Term.ConstSet.elements (Instance.dom db) in
  let rec tuples n =
    if n = 0 then [ [] ]
    else
      List.concat_map (fun t -> List.map (fun c -> c :: t) dom) (tuples (n - 1))
  in
  List.filter (fun c -> Engine.Joiner.entails_ucq idx query c)
    (tuples (Ucq.arity query))

let e17_row ~arity ~n () =
  let db = Workload.path_db ~pred:"E" n in
  let query = e17_query arity in
  let idx = Tgds.Chase.index (Tgds.Chase.run ~max_level:8 e17_sigma db) in
  let universe = Instance.dom db in
  let enumerate () =
    (Engine.Enumerate.ucq ~universe idx query).Engine.Enumerate.answers
  in
  let t_enum = measure ~repeat:3 (fun () -> ignore (enumerate ())) in
  let m = Engine.Index.metrics idx in
  let since = work m in
  let enum = enumerate () in
  let counters = work_fields ~since m in
  let t_gat =
    measure ~repeat:1 (fun () -> ignore (e17_generate_and_test idx query db))
  in
  let oracle =
    List.sort_uniq Stdlib.compare (e17_generate_and_test idx query db)
  in
  Obs.Json.
    [
      ("db_facts", Int (Instance.size db));
      ("adom", Int n);
      ("arity", Int arity);
      ("answers", Int (List.length enum));
      ("enumerate_s", Float t_enum);
      ("generate_and_test_s", Float t_gat);
      ("speedup", Float (t_gat /. t_enum));
      ("agree", Bool (enum = oracle));
    ]
  @ counters

let e17_cases ~full =
  (* |adom| sweep at arity 2 (the acceptance workload: |adom| >= 200) *)
  List.map
    (fun n -> case (Printf.sprintf "answers-adom%d-ar2" n) (e17_row ~arity:2 ~n))
    (if full then [ 100; 200; 400; 800 ] else [ 100; 200; 400 ])
  (* arity sweep at a fixed domain *)
  @ List.map
      (fun k ->
        case (Printf.sprintf "answers-ar%d" k)
          (e17_row ~arity:k ~n:(if full then 60 else 40)))
      [ 0; 1; 2; 3 ]

let e17 ~full () =
  header "E17: streaming answer enumeration vs generate-and-test"
    "not a paper claim — the Omq_eval.answer_set path (DESIGN.md §2.11)"
    "enumeration scales with the answers found; generate-and-test with |adom|^arity";
  run_cases e17_cases ~full
    ~cols:
      [
        "adom"; "arity"; "answers"; "generate_and_test_s"; "enumerate_s";
        "speedup"; "agree";
      ]

(* ------------------------------------------------------------------ *)
(* E18 — incremental maintenance vs full re-chase (lib/incr)            *)
(* ------------------------------------------------------------------ *)

(* Null-blind skeleton of an instance: the sorted multiset of facts with
   every labelled null collapsed to a placeholder. One sort, so it stays
   tractable on the E15-scale workloads where a hom-based
   equality-up-to-nulls check would not, yet it catches any maintenance
   bug that loses, resurrects or mis-grounds a fact. *)
let skeleton inst =
  Instance.fold
    (fun f acc ->
      ( Fact.pred f,
        List.map
          (function Term.Named c -> Some c | Term.Null _ -> None)
          (Fact.args f) )
      :: acc)
    inst []
  |> List.sort compare

(* One E18 row: build the maintained store, then maintain one fact
   ([`Insert] adds [ins]; [`Delete] retracts [del] from the post-insert
   store) and compare with a full re-chase of the resulting database.
   The timed mutation runs on a warm store: right before it, [ins] is
   inserted and, for [`Insert], retracted again, so a row times neither
   the store's first mutation nor its first touch after the re-chases. *)
let e18_row ~sigma ~db ~max_level ~ins ~del op () =
  let rechase inst =
    Tgds.Chase.run ~policy:Tgds.Chase.Oblivious ~max_level sigma inst
  in
  (* what the maintained store costs to build: the chase plus the
     derivation ledger; the minor heap is flushed before the second
     reading so promotions are counted *)
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let store, create_s = time_once (fun () -> Incr.create ~max_level sigma db) in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  let create_minor =
    (s1.Gc.minor_words -. s0.Gc.minor_words) /. float_of_int (Incr.size store)
  in
  let ledger_words =
    float_of_int (Incr.ledger_words store) /. float_of_int (Incr.size store)
  in
  let db_ins = Instance.add_fact ins db in
  let maintain, target =
    match op with
    | `Insert -> ((fun () -> Incr.insert store ins), db_ins)
    | `Delete ->
        ( (fun () -> Incr.delete store del),
          Instance.diff db_ins (Instance.of_facts [ del ]) )
  in
  let rechase_s = measure ~repeat:1 (fun () -> ignore (rechase target)) in
  let fresh = Tgds.Chase.instance (rechase target) in
  ignore (Incr.insert store ins);
  if op = `Insert then ignore (Incr.delete store ins);
  let m = Incr.metrics store in
  let since = work m in
  (* the mutation's own allocation: deterministic, so gated At_most *)
  let w0 = Gc.minor_words () in
  let _, maintain_s = time_once maintain in
  let maintain_minor = Gc.minor_words () -. w0 in
  let counters = work_fields ~since m in
  Obs.Json.
    [
      ("db_facts", Int (Instance.size db));
      ("chase_facts", Int (Instance.size fresh));
      ("maintain_s", Float maintain_s);
      ("maintain_minor_words", Float maintain_minor);
      ("rechase_s", Float rechase_s);
      ("speedup", Float (rechase_s /. maintain_s));
      ("agree", Bool (skeleton (Incr.instance store) = skeleton fresh));
      ("create_s", Float create_s);
      ("create_minor_words_per_fact", Float create_minor);
      ("ledger_words_per_fact", Float ledger_words);
    ]
  @ counters

(* The churn row: on one maintained store, delete [n] seeded base facts
   spread across the relations (round robin over the predicates, each
   relation's facts in a seeded shuffle), one mutation at a time, then
   re-insert them in the same order. The store ends on the database it
   started from, so it is compared with a re-chase of that database. *)
let e18_churn_row ~sigma ~db ~max_level ~n ~seed () =
  let store = Incr.create ~max_level sigma db in
  let rng = Random.State.make [| seed |] in
  let shuffled facts =
    let a = Array.of_list facts in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let facts = List.sort compare (Instance.fold List.cons db []) in
  let groups =
    List.map
      (fun p -> shuffled (List.filter (fun f -> Fact.pred f = p) facts))
      (List.sort_uniq compare (List.map Fact.pred facts))
  in
  (* the first fact of every relation, then the second, … *)
  let rec interleave = function
    | [] -> []
    | groups ->
        List.map List.hd groups
        @ interleave (List.filter (( <> ) []) (List.map List.tl groups))
  in
  let picked = List.filteri (fun i _ -> i < n) (interleave groups) in
  let m = Incr.metrics store in
  let since = work m and removes0 = Obs.Metrics.count m "index.removes" in
  let (), delete_s = time_once (fun () -> List.iter (fun f -> ignore (Incr.delete store f)) picked) in
  let (), insert_s = time_once (fun () -> List.iter (fun f -> ignore (Incr.insert store f)) picked) in
  let counters = work_fields ~since m in
  let fresh =
    Tgds.Chase.instance (Tgds.Chase.run ~policy:Tgds.Chase.Oblivious ~max_level sigma db)
  in
  let per_op t k = Obs.Json.Float (t *. 1e6 /. float_of_int k) in
  let ops = List.length picked in
  Obs.Json.
    [
      ("db_facts", Int (Instance.size db));
      ("chase_facts", Int (Instance.size fresh));
      ("churned", Int ops);
      ("maintain_s", Float (delete_s +. insert_s));
      ("maintain_us_per_op", per_op (delete_s +. insert_s) (2 * ops));
      ("delete_us_per_op", per_op delete_s ops);
      ("insert_us_per_op", per_op insert_s ops);
      ("agree", Bool (skeleton (Incr.instance store) = skeleton fresh));
      ("index_removes", Int (Obs.Metrics.count m "index.removes" - removes0));
    ]
  @ counters

let e18_cases ~full =
  let cases workload ~make ~max_level ~ins ~del =
    List.map
      (fun (op, name) ->
        case (Printf.sprintf "incr-%s-%s" workload name) (fun () ->
            let sigma, db = make () in
            e18_row ~sigma ~db ~max_level ~ins ~del op ()))
      [ (`Insert, "insert"); (`Delete, "delete") ]
  in
  List.concat_map
    (fun u ->
      cases (Printf.sprintf "lubm-%d" u)
        ~make:(fun () -> Workload.lubm ~universities:u ())
        ~max_level:6
        ~ins:(fact "Prof" [ "prof_new" ])
        ~del:(fact "Prof" [ "prof_0_0_0" ]))
    (if full then [ 10; 160; 640 ] else [ 10; 160 ])
  @ (if full then
       [
         case "incr-lubm-640-churn" (fun () ->
             let sigma, db = Workload.lubm ~universities:640 () in
             e18_churn_row ~sigma ~db ~max_level:6 ~n:1000 ~seed:1 ());
       ]
     else [])
  @ List.concat_map
      (fun n ->
        cases (Printf.sprintf "full-chain-%d" n)
          ~make:(fun () ->
            (Workload.guarded_full_chain ~depth:4, Workload.path_db ~pred:"E" n))
          ~max_level:max_int
          ~ins:(fact "E" [ "z"; "a0" ])
          ~del:(fact "E" [ "a0"; "a1" ]))
      (if full then [ 2000; 4000 ] else [ 2000 ])

let e18 ~full () =
  header "E18: incremental chase maintenance vs full re-chase"
    "not a paper claim — the lib/incr maintained store (DESIGN.md §2.12)"
    "single-fact insert/delete repairs in ~the affected subtree; re-chase pays the whole instance";
  run_cases e18_cases ~full
    ~cols:
      [
        "db_facts"; "chase_facts"; "maintain_s"; "maintain_minor_words";
        "rechase_s"; "speedup"; "agree"; "create_s"; "create_minor_words_per_fact";
        "ledger_words_per_fact"; "maintain_us_per_op";
      ]

(* ------------------------------------------------------------------ *)
(* E20 — WAL recovery cost vs tail length (lib/resil, DESIGN.md §2.14)  *)
(* ------------------------------------------------------------------ *)

let with_wal_dir f =
  let dir = Filename.temp_file "guarded-bench-wal" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* The WAL a supervised [serve] session writes over [n] inserts with no
   rotation cadence: recovery loads the newest image — seq 0, or the
   re-anchor after the run's last ladder climb — and replays the tail
   after it. [plan] injects faults into the producing run, so its
   degradation count lands in the row. *)
let e20_build_wal ~sigma ~db ~dir ~plan n =
  Relational.Term.reset_nulls ();
  let module Sup = Resil.Serve_supervisor in
  let s =
    Sup.start ~retries:3 ~sleep:ignore ~checkpoint_every:max_int
      ~fault_plan:plan ~wal:dir sigma
      (Incr.create ~max_level:6 sigma db)
  in
  Fun.protect
    ~finally:(fun () -> Sup.close s)
    (fun () ->
      for i = 1 to n do
        ignore
          (Sup.step s
             (Incr.Insert (fact "Prof" [ Printf.sprintf "prof_wal_%d" i ])))
      done);
  Sup.degradations s

let e20_row ~plan n () =
  let sigma, db = Workload.lubm ~universities:10 () in
  with_wal_dir (fun dir ->
      let degradations = e20_build_wal ~sigma ~db ~dir ~plan n in
      let recover () =
        match Resil.Wal.recover ~dir with
        | Ok r -> r
        | Error e -> failwith ("e20: recovery failed: " ^ e)
      in
      let info = recover () in
      let recover_s =
        measure ~repeat:3 (fun () ->
            ignore (Resil.Serve_supervisor.replay sigma (recover ())))
      in
      Obs.Json.
        [
          ("tail", Int n);
          ("recover_s", Float recover_s);
          ("records_replayed", Int (List.length info.Resil.Wal.rec_ops));
          ("records_truncated", Int info.Resil.Wal.rec_truncated);
          ("degradations", Int degradations);
        ])

let e20_cases ~full =
  List.map
    (fun n -> case (Printf.sprintf "recover-tail-%d" n) (e20_row ~plan:[] n))
    (if full then [ 50; 200; 800; 3200 ] else [ 50; 200; 800 ])
  @ [
      (* same log, but the producing run climbed the ladder: three
         injected [incr.insert] faults, each retried one rung up and
         followed by a re-anchor, so only the tail after the last climb
         is replayed *)
      case "recover-faulted-200"
        (e20_row
           ~plan:
             [
               Resil.Fault.At_point ("incr.insert", 50);
               Resil.Fault.At_point ("incr.insert", 50);
               Resil.Fault.At_point ("incr.insert", 50);
             ]
           200);
    ]

let e20 ~full () =
  header "E20: WAL recovery cost vs tail length"
    "not a paper claim — the durable serve runtime (DESIGN.md §2.14)"
    "recovery = newest image + tail replay; cost grows ~linearly with the \
     replayed tail";
  run_cases e20_cases ~full
    ~cols:
      [
        "tail"; "recover_s"; "records_replayed"; "records_truncated";
        "degradations";
      ]

(* ------------------------------------------------------------------ *)
(* E22 — allocation-lean concurrent serving (supersedes E21)            *)
(* ------------------------------------------------------------------ *)

(* The whole pipeline end-to-end: emit a lubm-scale program in surface
   syntax (the parser wants lowercase predicates, so the generated
   predicates are lowercased), parse it, saturate once, freeze the
   snapshot and drive Server.Daemon.run over a file of mixed
   answers/count request lines at several worker counts.

   E22 extends the old E21 rows with the worker domains' Gc word deltas:
   minor words per served request is the multicore scaling signal (any
   domain's minor collection stops every domain), and unlike qps it is
   deterministic enough to regress-gate on a shared CI box.
   [reply_hits] counts the requests the workers' reply caches answered.
   At one worker it is fixed by the request list; with more, each worker
   misses a line once, so the count follows the scheduling. The template
   rows repeat eight lines, so they measure cache hits; the
   [e22-distinct-w1] row serves distinct point lookups at one worker,
   which only miss, so it measures the parse, evaluate and render path
   (its [reply_hits] is 0). *)
let e22_program ~universities =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    "prof(X) -> teaches(X,C).\n\
     teaches(X,C) -> course(C).\n\
     course(C) -> offeredby(C,D).\n\
     offeredby(C,D) -> dept(D).\n\
     teaches(X,C) -> faculty(X).\n\
     student(S) -> takes(S,C).\n\
     takes(S,C) -> course(C).\n\
     student(S) -> advisedby(S,A).\n\
     advisedby(S,A) -> faculty(A).\n\
     memberof(X,D) -> dept(D).\n";
  let _, db = Workload.lubm ~universities () in
  Instance.iter
    (fun f ->
      Buffer.add_string buf (String.lowercase_ascii (Fact.pred f));
      Buffer.add_char buf '(';
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Fmt.str "%a" Term.pp_const c))
        (Fact.args f);
      Buffer.add_string buf ").\n")
    db;
  Buffer.contents buf

(* the mixed request set: point lookups, wide scans, a union, a join and
   a count, cycled in a fixed order so every run issues the same lines *)
let e22_requests n =
  let templates =
    [|
      "answers q(X) :- prof(X).";
      "count q(X) :- faculty(X).";
      "answers q(X,C) :- teaches(X,C).";
      "count q(S) :- student(S). q(S) :- prof(S).";
      "answers q(S,C) :- takes(S,C), course(C).";
      "count q(D) :- dept(D).";
      "answers q(P,D) :- prof(P), memberof(P,D).";
      "count q(S,A) :- advisedby(S,A), faculty(A).";
    |]
  in
  List.init n (fun i -> templates.(i mod Array.length templates))

(* one serving run: feed [requests] through a request file, return the
   daemon summary plus the report carrying the latency histogram *)
let e22_serve ~workers ~requests snap =
  let req_path = Filename.temp_file "e22_requests" ".txt" in
  let out_path = Filename.temp_file "e22_replies" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove req_path;
      Sys.remove out_path)
    (fun () ->
      let oc = open_out req_path in
      List.iter
        (fun r ->
          output_string oc r;
          output_char oc '\n')
        requests;
      close_out oc;
      let report = Obs.Report.create "e22" in
      let ic = open_in req_path and oc = open_out out_path in
      let summary =
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            close_out_noerr oc)
          (fun () ->
            Server.Daemon.run ~report
              {
                Server.Daemon.workers;
                max_facts = None;
                max_ms = None;
                fault_plan = [];
              }
              snap ic oc)
      in
      (summary, report))

let e22_snapshot ~universities =
  let p = Syntax.Parser.parse (e22_program ~universities) in
  let db = Syntax.Parser.database p in
  let r = Tgds.Chase.run ~max_level:6 p.Syntax.Parser.tgds db in
  Engine.Snapshot.freeze
    ~saturated:(Tgds.Chase.saturated r)
    ~universe:(Instance.dom db) (Tgds.Chase.index r)

(* one serving run's row: summary counts, rates and per-request words *)
let e22_row ~universities ~workers ~requests snap =
  let summary, report = e22_serve ~workers ~requests snap in
  if summary.Server.Daemon.errors > 0 then
    failwith "e22: request errors against a healthy snapshot";
  let quant q =
    match Obs.Metrics.quantile (Obs.Report.metrics report) "server.request_s" q with
    | Some v -> v *. 1e3
    | None -> 0.
  in
  let serve_s = summary.Server.Daemon.wall_s in
  let served = float_of_int summary.Server.Daemon.served in
  (* summed worker-domain Gc deltas, normalised per served request:
     unlike the time columns, not machine-dependent *)
  Obs.Json.
    [
      ("universities", Int universities);
      ("workers", Int workers);
      ("requests", Int summary.Server.Daemon.served);
      ("reply_hits", Int summary.Server.Daemon.reply_hits);
      ("serve_s", Float serve_s);
      ("qps", Float (served /. serve_s));
      ("p50_ms", Float (quant 0.5));
      ("p99_ms", Float (quant 0.99));
      ("minor_words_per_req", Float (summary.Server.Daemon.minor_words /. served));
      ("major_words_per_req", Float (summary.Server.Daemon.major_words /. served));
    ]
  @ work_fields (Obs.Report.metrics report)

(* distinct point lookups, as in ci/server_load.sh's distinct phase: each
   line renames its variable, so no reply cache answers it and every
   request is parsed, evaluated and rendered *)
let e22_distinct_requests ~universities n =
  List.init n (fun i ->
      Printf.sprintf "answers q(C%d) :- takes(student_%d_%d_%d,C%d), course(C%d)." i
        (i / 10 mod universities) (i / 5 mod 2) (i mod 5) i i)

let e22_cases ~full =
  let universities = if full then 40 else 10 in
  let n_requests = if full then 2000 else 400 in
  let snap = lazy (e22_snapshot ~universities) in
  List.map
    (fun workers ->
      case (Printf.sprintf "server-lubm-%d-w%d" universities workers) (fun () ->
          e22_row ~universities ~workers ~requests:(e22_requests n_requests)
            (Lazy.force snap)))
    [ 1; 2; 4 ]
  (* only at the default size, so its name owns one row *)
  @
  if full then []
  else
    [
      case "e22-distinct-w1" (fun () ->
          e22_row ~universities ~workers:1
            ~requests:(e22_distinct_requests ~universities n_requests)
            (Lazy.force snap));
    ]

let e22 ~full () =
  header "E22: allocation-lean concurrent serving (supersedes E21)"
    "not a paper claim — the serving runtime (DESIGN.md §2.15-2.16)"
    "minor words per served request flat and low across worker counts: \
     the interned request path allocates O(answer bytes), so the global \
     minor-GC barriers that capped E21's multicore qps fire rarely \
     enough for added workers to help rather than hurt";
  run_cases e22_cases ~full
    ~cols:
      [
        "workers"; "requests"; "reply_hits"; "serve_s"; "qps"; "p50_ms"; "p99_ms";
        "minor_words_per_req"; "major_words_per_req";
      ]

(* ------------------------------------------------------------------ *)
(* gate — bench-regression gate against BENCH_engine.json (CI)          *)
(* ------------------------------------------------------------------ *)

(* How the gate judges a field of a rerun row against the committed one
   (fields not listed are not gated). [Same]: a semantic result, equal in
   every run. [At_most]: a work counter or a deterministic size (the
   ledger's words per fact, the chase's minor and major words per fact,
   a maintenance step's minor words), never above the baseline. [Time]: wall seconds, elementwise for
   per-level lists, within 3x; the 50 ms floor keeps sub-ms baselines
   from tripping on scheduler noise.
   [Words]: minor words per request, within 1.5x — allocation depends on
   the request mix, not the machine; +512 absorbs batching jitter. *)
type rule = Same | At_most | Time | Words

let rules =
  [
    ("chase_facts", Same); ("triggers", Same); ("facts_per_level", Same);
    ("answers", Same); ("agree", Same); ("records_replayed", Same);
    ("closure_facts", Same); ("db_star_facts", Same);
    ("sigma_star_rules", Same); ("types", Same); ("holds", Same);
    ("records_truncated", Same); ("degradations", Same); ("requests", Same);
    ("reply_hits", Same);
    ("index_probes", At_most); ("joiner_candidates", At_most);
    ("ledger_words_per_fact", At_most); ("minor_words_per_fact", At_most);
    ("major_words_per_fact", At_most); ("maintain_minor_words", At_most);
    ("indexed_s", Time); ("level_s", Time); ("enumerate_s", Time);
    ("maintain_s", Time); ("recover_s", Time); ("serve_s", Time);
    ("fpt_s", Time);
    ("minor_words_per_req", Words);
  ]

(* A baseline float is stored to 6 decimals (Obs.Json), so a rerun that
   reads the same value may exceed it by up to half a unit there. *)
let limit = function
  | Same -> Fun.id
  | At_most -> fun b -> b +. 5e-7
  | Time -> fun b -> Float.max (3. *. b) 0.05
  | Words -> fun b -> Float.max (1.5 *. b) (b +. 512.)

(* the cheapest rows of the experiments' tables *)
let gated =
  [ "lubm-10"; "full-chain-200"; "answers-adom200-ar2"; "incr-lubm-10-insert";
    "incr-lubm-10-delete"; "recover-tail-50"; "server-lubm-10-w1";
    "e22-distinct-w1"; "e3-fpt-160" ]

let rec nums = function
  | Obs.Json.Int i -> [ float_of_int i ]
  | Obs.Json.Float f -> [ f ]
  | Obs.Json.List l -> List.concat_map nums l
  | _ -> []

(* each baseline number with the median of the runs' numbers in its place *)
let medians base runs =
  List.mapi (fun i b -> (b, List.filter_map (fun r -> List.nth_opt (nums r) i) runs))
    (nums base)
  |> List.filter_map (fun (b, xs) ->
         match List.sort compare xs with
         | [] -> None
         | xs -> Some (b, List.nth xs (List.length xs / 2)))

(* Rerun each gated row's producer 3 times and judge its ruled fields.
   A regression is fatal under BENCH_GATE=strict (CI), a warning
   otherwise. A missing BENCH_engine.json is a skip even under strict (a
   fresh clone has no baselines); a corrupt one is fatal. *)
let gate () =
  Fmt.pr "@.=== gate: bench-regression check vs BENCH_engine.json ===@.";
  match read_bench_engine () with
  | None ->
      Fmt.pr "  warning: BENCH_engine.json missing — gate skipped (not a \
              failure, even under BENCH_GATE=strict)@."
  | Some (Error e) ->
      Fmt.epr "gate: BENCH_engine.json %s@." e;
      exit 1
  | Some (Ok baseline) ->
      let table =
        List.concat_map (fun cases -> cases ~full:false @ cases ~full:true)
          [ e3_cases; e15_cases; e17_cases; e18_cases; e20_cases; e22_cases ]
      in
      List.iter
        (fun r ->
          match workload_of r with
          | Some w when List.mem_assoc w table -> ()
          | Some w -> Fmt.pr "  warning: unknown workload owner %S — row skipped@." w
          | None -> Fmt.pr "  warning: baseline row without a workload — skipped@.")
        baseline;
      let failed = ref false in
      let judge name (field, rule) base runs =
        let over =
          if rule = Same then List.exists (( <> ) base) runs
          else List.exists (fun (b, g) -> g > limit rule b) (medians base runs)
        in
        if over then failed := true;
        Fmt.pr "  %-10s %-20s %-20s %s vs baseline %s@."
          (if over then "REGRESSION" else "ok") name field
          (String.concat " | " (List.map show (List.sort_uniq compare runs)))
          (show base)
      in
      List.iter
        (fun name ->
          match List.find_opt (fun r -> workload_of r = Some name) baseline with
          | None -> Fmt.pr "  %-20s no baseline entry — skipped@." name
          | Some base ->
              let runs = List.init 3 (fun _ -> List.assoc name table ()) in
              List.iter
                (fun ((field, _) as rule) ->
                  match
                    ( List.filter_map (Obs.Json.member field) runs,
                      Obs.Json.member field base )
                  with
                  | [], _ -> ()
                  | _, None -> Fmt.pr "  %-20s baseline has no %s — skipped@." name field
                  | got, Some b -> judge name rule b got)
                rules)
        gated;
      if not !failed then Fmt.pr "  gate ok@."
      else if Sys.getenv_opt "BENCH_GATE" = Some "strict" then (
        Fmt.epr "gate: bench regression detected (BENCH_GATE=strict)@.";
        exit 1)
      else Fmt.pr "  (warnings only: set BENCH_GATE=strict to make these fatal)@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (one Test.make per experiment's kernel)    *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let db100 = Workload.path_db ~pred:"X" 100 in
  let path4 = Workload.path_cq ~pred:"X" 4 in
  let grid33 = Workload.grid_cq 3 3 in
  let griddb = Workload.grid_db 5 5 in
  let uni = Workload.university_ontology () in
  let uni_db =
    Relational.Instance.of_facts [ fact "Prof" [ "p0" ]; fact "Course" [ "c0" ] ]
  in
  let uni_q =
    Ucq.of_cq (Cq.make [ atom "Teaches" [ v "x"; v "c" ]; atom "OfferedBy" [ v "c"; v "d" ] ])
  in
  let uni_omq = Omq.full_data_schema ~ontology:uni ~query:uni_q in
  let mgr = Workload.manager_ontology () in
  let mgr_db = Relational.Instance.of_facts [ fact "Emp" [ "eve" ] ] in
  let lin3 = Workload.linear_chain ~depth:3 in
  let lin_q = Ucq.of_cq (Cq.make [ atom "R3" [ v "x"; v "y" ] ]) in
  let d72 = Reductions.constraint_free_instance grid33 in
  let graph8 = Workload.random_graph ~n:8 ~p:0.35 ~seed:9 in
  let tests =
    [
      Test.make ~name:"e1-tw-eval" (Staged.stage (fun () -> Tw_eval.holds db100 path4));
      Test.make ~name:"e2-core" (Staged.stage (fun () -> Cq_core.core grid33));
      Test.make ~name:"e3-fpt-omq"
        (Staged.stage (fun () -> Omq_eval.certain_fpt uni_omq uni_db []));
      Test.make ~name:"e4-grid-eval" (Staged.stage (fun () -> Tw_eval.holds griddb grid33));
      Test.make ~name:"e5-clique-reduction"
        (Staged.stage (fun () -> Reductions.clique_to_cqs d72 ~graph:graph8 ~k:3));
      Test.make ~name:"e6-omq-to-cqs"
        (Staged.stage (fun () -> Reductions.omq_to_cqs uni_omq uni_db));
      Test.make ~name:"e7-chase"
        (Staged.stage (fun () -> Tgds.Chase.run ~max_level:4 mgr mgr_db));
      Test.make ~name:"e8-rewrite"
        (Staged.stage (fun () -> Tgds.Linear_rewrite.rewrite lin3 lin_q));
      Test.make ~name:"e9-meta"
        (Staged.stage (fun () ->
             Equivalence.cqs_uniformly_ucqk_equivalent 1
               (Cqs.make ~constraints:[] ~query:(Ucq.of_cq (Workload.grid_cq 2 2)))));
      Test.make ~name:"e10-optimize"
        (Staged.stage (fun () ->
             Cqs_eval.optimize
               (Cqs.make
                  ~constraints:(Workload.referential_constraints ())
                  ~query:
                    (Ucq.of_cq
                       (Cq.make ~answer:[ "l" ]
                          [ atom "Line" [ v "l"; v "o" ]; atom "Order" [ v "o"; v "c" ] ])))));
      Test.make ~name:"e11-linearize"
        (Staged.stage (fun () -> Tgds.Linearize.make uni uni_db));
      Test.make ~name:"e12-witness"
        (Staged.stage (fun () -> Finite_witness.build ~n:2 mgr mgr_db));
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 10) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  Fmt.pr "@.=== Bechamel micro-benchmarks (ns/run, monotonic clock) ===@.";
  List.iter
    (fun t ->
      let results = analyze (benchmark (Test.make_grouped ~name:"g" [ t ])) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Fmt.pr "  %-24s %12.0f ns/run@." name est
          | _ -> Fmt.pr "  %-24s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* smoke — tiny budgeted run whose stats JSON must round-trip (CI)      *)
(* ------------------------------------------------------------------ *)

let smoke () =
  Fmt.pr "@.=== smoke: budgeted chase report round-trip ===@.";
  (* non-terminating guarded program, cut by the fact budget *)
  let sigma =
    [
      Tgds.Tgd.make
        ~body:[ atom "S" [ v "x"; v "y" ] ]
        ~head:[ atom "S" [ v "y"; v "z" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "S" [ "a"; "b" ] ] in
  let budget = Obs.Budget.create ~max_facts:20 () in
  let r = Tgds.Chase.run ~budget sigma db in
  Obs.Report.write "BENCH_smoke.json" (Tgds.Chase.report ~name:"smoke" r);
  let ic = open_in "BENCH_smoke.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let fail msg =
    Fmt.epr "smoke: %s@." msg;
    exit 1
  in
  (match Obs.Json.parse s with
  | Error e -> fail ("stats JSON does not parse: " ^ e)
  | Ok j ->
      (match Obs.Json.member "name" j with
      | Some (Obs.Json.String "smoke") -> ()
      | _ -> fail "missing or ill-typed \"name\"");
      (match Obs.Json.member "outcome" j with
      | Some (Obs.Json.Obj _ as o) -> (
          match Obs.Json.member "status" o with
          | Some (Obs.Json.String "partial") -> ()
          | _ -> fail "expected outcome.status = \"partial\"")
      | _ -> fail "missing \"outcome\" object");
      (match Obs.Json.member "facts_per_level" j with
      | Some (Obs.Json.List (_ :: _)) -> ()
      | _ -> fail "missing or empty \"facts_per_level\"");
      (match Obs.Json.member "counters" j with
      | Some (Obs.Json.Obj _) -> ()
      | _ -> fail "missing \"counters\" object");
      (match Obs.Json.member "span" j with
      | Some (Obs.Json.Obj _) -> ()
      | _ -> fail "missing \"span\" object"));
  Fmt.pr "  BENCH_smoke.json ok (%d bytes)@." (String.length s)

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
    ("e13", e13); ("e14", e14); ("e15", e15); ("e17", e17);
    ("e18", e18); ("e20", e20); ("e22", e22);
  ]

(* `rows PREFIX` — print the BENCH_engine.json rows owned by PREFIX as a
   JSON list on stdout (CI extracts the E22 rows into a workflow
   artifact with `rows server-`). An empty prefix prints every row. *)
let rows_cmd prefix =
  match read_bench_engine () with
  | None ->
      Fmt.epr "rows: BENCH_engine.json missing@.";
      exit 1
  | Some (Error _) ->
      Fmt.epr "rows: BENCH_engine.json does not parse as a JSON list@.";
      exit 1
  | Some (Ok entries) ->
      let selected =
        List.filter
          (fun e ->
            match workload_of e with
            | Some w -> String.starts_with ~prefix w
            | None -> false)
          entries
      in
      print_string (Obs.Json.to_string (Obs.Json.List selected));
      print_newline ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | "rows" :: rest -> rows_cmd (match rest with p :: _ -> p | [] -> "")
  | _ ->
  let full = List.mem "--full" args in
  let special = [ "micro"; "smoke"; "gate" ] in
  let wanted =
    List.filter (fun a -> a <> "--full" && not (List.mem a special)) args
  in
  let run_micro = List.mem "micro" args in
  let run_smoke = List.mem "smoke" args in
  let run_gate = List.mem "gate" args in
  let chosen =
    if wanted = [] then
      if run_micro || run_smoke || run_gate then [] else all_experiments
    else List.filter (fun (name, _) -> List.mem name wanted) all_experiments
  in
  Fmt.pr "guarded: experiment harness (sizes: %s)@."
    (if full then "full" else "default");
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, f) -> f ~full ()) chosen;
  if run_micro then micro ();
  if run_smoke then smoke ();
  if run_gate then gate ();
  Fmt.pr "@.total wall time: %.1fs@." (Unix.gettimeofday () -. t0)
