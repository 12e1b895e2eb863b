(* Differential suite for the interned answer-enumeration path.

   The goldens below were produced by the pre-interning enumerator (the
   PR 9 tree: VarMap bindings, const-list seen table, materialized
   accumulator) over deterministic workloads, and pin the *observable*
   enumeration contract so the representation underneath can change
   without anything noticing — the same way test_store.ml pinned the
   columnar store swap:

   - answer sets (rendered tuples, outcome, count) over the indexed
     engine's chase are byte-identical to the goldens;
   - budgeted runs return the same Partial *prefix*: the emission order
     of the search is part of the contract, because a served reply
     renders whatever prefix the budget left;
   - the interned fast path (`Enumerate.run_interned`) agrees with the
     classic materializing API on every workload, under shared-scratch
     reuse across requests, and its per-request allocation stays within
     a fixed minor-words envelope (the E22 regression bound). *)

open Relational
module Chase = Tgds.Chase

(* ------------------------------------------------------------------ *)
(* Deterministic workloads                                              *)
(* ------------------------------------------------------------------ *)

(* QCheck generators driven by a fixed PRNG seed: workload [k] is a
   function of [k] alone, so the committed goldens are reproducible. *)
let gen_workload k =
  let rand = Random.State.make [| 0xE22; k |] in
  let g gen = QCheck.Gen.generate1 ~rand gen in
  let sigma = g Generators.gen_sigma in
  let db = g Generators.gen_db in
  let queries = List.init 3 (fun _ -> g Generators.gen_ucq) in
  (sigma, db, queries)

let n_workloads = 10

let chase_budget () = Obs.Budget.create ~max_facts:120 ~max_levels:5 ()

let saturate sigma db =
  Term.reset_nulls ();
  Chase.run ~policy:Chase.Restricted ~budget:(chase_budget ()) sigma db

let render_const = function
  | Term.Named s -> s
  | Term.Null i -> "_:n" ^ string_of_int i

let render_tuple t = "(" ^ String.concat "," (List.map render_const t) ^ ")"

let render_outcome = function
  | Obs.Budget.Complete -> "complete"
  | Obs.Budget.Partial _ -> "partial"

let render_result (res : Engine.Enumerate.result) =
  Fmt.str "%s n=%d%s"
    (render_outcome res.Engine.Enumerate.outcome)
    (List.length res.Engine.Enumerate.answers)
    (String.concat ""
       (List.map (fun t -> " " ^ render_tuple t) res.Engine.Enumerate.answers))

(* One line per (workload, query): the full answer set, and the Partial
   prefix under a 3-answer budget (which pins emission order, not just
   the set). *)
let observe k =
  let sigma, db, queries = gen_workload k in
  let r = saturate sigma db in
  let idx = Chase.index r in
  let universe = Instance.dom db in
  List.concat
    (List.mapi
       (fun j q ->
         let full = Engine.Enumerate.ucq ~universe idx q in
         let budget = Obs.Budget.create ~max_facts:3 () in
         let cut = Engine.Enumerate.ucq ~budget ~universe idx q in
         [
           Fmt.str "%d.%d full %s" k j (render_result full);
           Fmt.str "%d.%d cut3 %s" k j (render_result cut);
         ])
       queries)

(* ------------------------------------------------------------------ *)
(* Goldens: pre-interning enumerator output (PR 9 tree). Regenerate     *)
(* with ENUM_GOLDEN_REGEN=1 dune exec test/test_enumerate.exe -- only   *)
(* when the *semantic* contract changes, never for a representation     *)
(* change.                                                              *)
(* ------------------------------------------------------------------ *)

let golden : string list =
[
    "0.0 full complete n=1 ()";
    "0.0 cut3 complete n=1 ()";
    "0.1 full complete n=1 (c)";
    "0.1 cut3 complete n=1 (c)";
    "0.2 full complete n=0";
    "0.2 cut3 complete n=0";
    "1.0 full complete n=9 (a,a,c) (a,b,c) (a,c,c) (b,a,c) (b,b,c) (b,c,c) (c,a,c) (c,b,c) (c,c,c)";
    "1.0 cut3 partial n=4 (a,a,c) (a,b,c) (a,c,c) (b,a,c)";
    "1.1 full complete n=0";
    "1.1 cut3 complete n=0";
    "1.2 full complete n=0";
    "1.2 cut3 complete n=0";
    "2.0 full complete n=1 ()";
    "2.0 cut3 complete n=1 ()";
    "2.1 full complete n=1 ()";
    "2.1 cut3 complete n=1 ()";
    "2.2 full complete n=2 (a,a) (a,c)";
    "2.2 cut3 complete n=2 (a,a) (a,c)";
    "3.0 full complete n=2 (a,a) (b,a)";
    "3.0 cut3 complete n=2 (a,a) (b,a)";
    "3.1 full complete n=0";
    "3.1 cut3 complete n=0";
    "3.2 full complete n=0";
    "3.2 cut3 complete n=0";
    "4.0 full complete n=0";
    "4.0 cut3 complete n=0";
    "4.1 full complete n=0";
    "4.1 cut3 complete n=0";
    "4.2 full complete n=1 (c)";
    "4.2 cut3 complete n=1 (c)";
    "5.0 full complete n=0";
    "5.0 cut3 complete n=0";
    "5.1 full complete n=0";
    "5.1 cut3 complete n=0";
    "5.2 full complete n=2 (a) (c)";
    "5.2 cut3 complete n=2 (a) (c)";
    "6.0 full complete n=3 (a,c) (b,c) (c,c)";
    "6.0 cut3 complete n=3 (a,c) (b,c) (c,c)";
    "6.1 full complete n=0";
    "6.1 cut3 complete n=0";
    "6.2 full complete n=0";
    "6.2 cut3 complete n=0";
    "7.0 full complete n=2 (a) (b)";
    "7.0 cut3 complete n=2 (a) (b)";
    "7.1 full complete n=6 (a,a) (a,b) (a,c) (b,a) (b,b) (b,c)";
    "7.1 cut3 partial n=4 (a,a) (a,b) (a,c) (b,a)";
    "7.2 full complete n=1 ()";
    "7.2 cut3 complete n=1 ()";
    "8.0 full complete n=1 (b,b)";
    "8.0 cut3 complete n=1 (b,b)";
    "8.1 full complete n=1 (b,b,b)";
    "8.1 cut3 complete n=1 (b,b,b)";
    "8.2 full complete n=1 (b)";
    "8.2 cut3 complete n=1 (b)";
    "9.0 full complete n=0";
    "9.0 cut3 complete n=0";
    "9.1 full complete n=2 (b) (c)";
    "9.1 cut3 complete n=2 (b) (c)";
    "9.2 full complete n=2 (b) (c)";
    "9.2 cut3 complete n=2 (b) (c)";
  ]

let test_golden () =
  let got = List.concat (List.init n_workloads observe) in
  Alcotest.(check (list string)) "pre-refactor answer goldens" golden got

let regen () =
  let lines = List.concat (List.init n_workloads observe) in
  print_string "  [\n";
  List.iter (fun l -> Printf.printf "    %S;\n" l) lines;
  print_string "  ]\n"

(* ------------------------------------------------------------------ *)
(* Interned fast path                                                   *)
(* ------------------------------------------------------------------ *)

(* The server's request path: one ctx per worker, reused across every
   request it serves. Running all of a workload's queries through a
   single shared ctx must reproduce the same goldens. *)
let observe_interned k =
  let sigma, db, queries = gen_workload k in
  let r = saturate sigma db in
  let cx = Engine.Enumerate.ctx ~universe:(Instance.dom db) (Chase.index r) in
  List.concat
    (List.mapi
       (fun j q ->
         let full =
           Engine.Enumerate.materialize (Engine.Enumerate.ucq_interned cx q)
         in
         let budget = Obs.Budget.create ~max_facts:3 () in
         let cut =
           Engine.Enumerate.materialize
             (Engine.Enumerate.ucq_interned ~budget cx q)
         in
         [
           Fmt.str "%d.%d full %s" k j (render_result full);
           Fmt.str "%d.%d cut3 %s" k j (render_result cut);
         ])
       queries)

let test_interned_differential () =
  let got = List.concat (List.init n_workloads observe_interned) in
  Alcotest.(check (list string))
    "interned path through one shared ctx matches the goldens" golden got

(* An interned result must not alias the ctx's reusable scratch: collect
   results first, clobber the ctx with more requests, render afterwards. *)
let test_interned_results_survive_ctx_reuse () =
  List.iter
    (fun k ->
      let sigma, db, queries = gen_workload k in
      let r = saturate sigma db in
      let cx =
        Engine.Enumerate.ctx ~universe:(Instance.dom db) (Chase.index r)
      in
      let held =
        List.map (fun q -> Engine.Enumerate.ucq_interned cx q) queries
      in
      (* a second pass over every query reuses the arena, the seen-set
         and the binding scratch the held results must not share *)
      List.iter
        (fun q -> ignore (Engine.Enumerate.ucq_interned cx q))
        queries;
      (* observe's lines alternate full/cut3; keep the full ones *)
      let expected =
        List.filteri (fun i _ -> i mod 2 = 0) (observe k)
      in
      let got =
        List.mapi
          (fun j res ->
            Fmt.str "%d.%d full %s" k j
              (render_result (Engine.Enumerate.materialize res)))
          held
      in
      Alcotest.(check (list string))
        (Fmt.str "held results unchanged by ctx reuse (workload %d)" k)
        expected got)
    [ 1; 2; 7; 8 ]

(* The E22 regression bound: a served request through a warm ctx must
   stay inside a fixed minor-heap envelope. The pre-interning enumerator
   allocated O(search tree) — VarMap rebinds per node, const tuples per
   seen-set probe — and sat far outside this bound; the interned path
   allocates O(query + answers). The envelope has ~3x headroom over the
   measured cost so it only fails on a real regression, not on noise. *)
let test_request_allocation_bound () =
  let sigma, db, queries = gen_workload 1 in
  let r = saturate sigma db in
  let cx = Engine.Enumerate.ctx ~universe:(Instance.dom db) (Chase.index r) in
  let q = List.hd queries in
  for _ = 1 to 3 do
    ignore (Engine.Enumerate.ucq_interned cx q)
  done;
  let reps = 1000 in
  let m0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Engine.Enumerate.icount (Engine.Enumerate.ucq_interned cx q))
  done;
  let per = (Gc.minor_words () -. m0) /. float_of_int reps in
  Alcotest.(check bool)
    (Fmt.str "per-request minor words within envelope (measured %.0f)" per)
    true
    (per < 1000.)

let () =
  if Sys.getenv_opt "ENUM_GOLDEN_REGEN" <> None then regen ()
  else
    Alcotest.run "enumerate"
      [
        ( "golden",
          [
            Alcotest.test_case "answers byte-identical (indexed)" `Quick
              test_golden;
          ] );
        ( "interned",
          [
            Alcotest.test_case "shared-ctx differential" `Quick
              test_interned_differential;
            Alcotest.test_case "results survive ctx reuse" `Quick
              test_interned_results_survive_ctx_reuse;
            Alcotest.test_case "request allocation envelope" `Quick
              test_request_allocation_bound;
          ] );
      ]
