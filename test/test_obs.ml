(* Unit and acceptance tests for lib/obs (metrics, spans, budgets, JSON
   reports) and the budget-aware chase: a non-terminating guarded program
   halts within the fact budget, returns a Partial outcome, and its run
   report carries per-level fact counts and per-phase durations. *)

open Relational
open Relational.Term
module Chase = Tgds.Chase

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0
let v = Term.var
let atom p args = Atom.make p args
let fact p args = Fact.make p (List.map (fun s -> Named s) args)

(* S(x,y) → ∃z S(y,z): the oblivious chase never terminates. *)
let transitive_sigma =
  [
    Tgds.Tgd.make
      ~body:[ atom "S" [ v "x"; v "y" ] ]
      ~head:[ atom "S" [ v "y"; v "z" ] ];
  ]

let seed_db = Instance.of_facts [ fact "S" [ "a"; "b" ] ]

(* ------------------------------------------------------------------ *)
(* Json                                                                 *)
(* ------------------------------------------------------------------ *)

let test_json_render () =
  let j =
    Obs.Json.Obj
      [
        ("a", Obs.Json.Int 1);
        ("b", Obs.Json.List [ Obs.Json.Bool true; Obs.Json.Null ]);
        ("c", Obs.Json.String "x\"y\n");
        ("d", Obs.Json.Float 0.25);
      ]
  in
  check_str "deterministic render"
    {|{"a":1,"b":[true,null],"c":"x\"y\n","d":0.250000}|}
    (Obs.Json.to_string j)

let test_json_roundtrip () =
  let j =
    Obs.Json.Obj
      [
        ("n", Obs.Json.Int (-3));
        ("f", Obs.Json.Float 1.5);
        ("s", Obs.Json.String "nested \\ \"quotes\"");
        ("l", Obs.Json.List [ Obs.Json.Obj [ ("x", Obs.Json.Null) ] ]);
      ]
  in
  match Obs.Json.parse (Obs.Json.to_string j) with
  | Ok j' -> check "parse inverts render" true (j = j')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated" ] in
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error on %S" s)
    bad

(* RFC 8259 numbers only: OCaml's int_of_string/float_of_string accept
   far more (leading '+', interior signs via partial reads, leading
   zeros, dangling '.', hex), none of which may leak through — a
   checkpoint or report with "1-2" in a number position must be rejected,
   not silently read as 1 or -1. *)
let test_json_number_grammar () =
  let rejected =
    [
      "1-2"; "+5"; "--3"; "01"; "007"; "5."; ".5"; "1.e5"; "1e"; "1e+";
      "0x10"; "1_000"; "-"; "- 1"; "[1-2]"; "{\"a\":+5}"; "1.2.3"; "NaN";
      "Infinity";
    ]
  in
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Error _ -> ()
      | Ok j ->
          Alcotest.failf "expected number parse error on %S, got %s" s
            (Obs.Json.to_string j))
    rejected;
  let accepted =
    [
      ("0", Obs.Json.Int 0);
      ("-0", Obs.Json.Int 0);
      ("42", Obs.Json.Int 42);
      ("-17", Obs.Json.Int (-17));
      ("3.5", Obs.Json.Float 3.5);
      ("1e2", Obs.Json.Float 100.);
      ("1e+2", Obs.Json.Float 100.);
      ("-0.5e-1", Obs.Json.Float (-0.05));
      ("1.25E2", Obs.Json.Float 125.);
    ]
  in
  List.iter
    (fun (s, expect) ->
      match Obs.Json.parse s with
      | Ok j when j = expect -> ()
      | Ok j ->
          Alcotest.failf "parse %S: got %s, expected %s" s
            (Obs.Json.to_string j)
            (Obs.Json.to_string expect)
      | Error e -> Alcotest.failf "parse %S failed: %s" s e)
    accepted

let test_json_map_floats () =
  let j = Obs.Json.Obj [ ("s", Obs.Json.Float 1.25); ("n", Obs.Json.Int 2) ] in
  check_str "floats normalised" {|{"s":0.000000,"n":2}|}
    (Obs.Json.to_string (Obs.Json.map_floats (fun _ -> 0.) j))

let test_json_member () =
  let j = Obs.Json.Obj [ ("k", Obs.Json.Int 7) ] in
  check "member hit" true (Obs.Json.member "k" j = Some (Obs.Json.Int 7));
  check "member miss" true (Obs.Json.member "z" j = None)

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "x" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  check_int "value" 5 (Obs.Metrics.value c);
  check_int "count by name" 5 (Obs.Metrics.count m "x");
  check_int "unregistered is 0" 0 (Obs.Metrics.count m "y");
  (* find-or-create: the same handle *)
  Obs.Metrics.incr (Obs.Metrics.counter m "x");
  check_int "shared handle" 6 (Obs.Metrics.count m "x");
  check "sorted names" true
    (let names = List.map fst (Obs.Metrics.counters m) in
     names = List.sort String.compare names)

let test_metrics_histograms () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.observe m "d" 0.002;
  Obs.Metrics.observe m "d" 0.004;
  Obs.Metrics.observe m "d" 99.0;
  match Obs.Metrics.histograms m with
  | [ ("d", s) ] ->
      check_int "count" 3 s.Obs.Metrics.count;
      check "sum" true (abs_float (s.Obs.Metrics.sum -. 99.006) < 1e-9);
      check "min" true (s.Obs.Metrics.min = 0.002);
      check "max" true (s.Obs.Metrics.max = 99.0)
  | _ -> Alcotest.fail "one histogram expected"

let test_metrics_quantile () =
  let m = Obs.Metrics.create () in
  check "missing histogram" true (Obs.Metrics.quantile m "d" 0.5 = None);
  (* 100 observations spread over two decades *)
  for i = 1 to 100 do
    Obs.Metrics.observe m "d" (float_of_int i *. 1e-4)
  done;
  check "empty q raises" true
    (try
       ignore (Obs.Metrics.quantile m "d" 1.5);
       false
     with Invalid_argument _ -> true);
  let q p = Option.get (Obs.Metrics.quantile m "d" p) in
  check "q0 is exact min" true (q 0. = 1e-4);
  check "q1 is exact max" true (q 1. = 1e-2);
  (* p50 = 5ms exactly on a bucket boundary; the estimate must land in
     the right bucket (2ms, 10ms] within a factor of the bucket width *)
  check (Fmt.str "p50 in-bucket (%g)" (q 0.5)) true
    (q 0.5 >= 2e-3 && q 0.5 <= 1e-2);
  check (Fmt.str "p99 in-bucket (%g)" (q 0.99)) true
    (q 0.99 >= 5e-3 && q 0.99 <= 1e-2);
  check "monotone" true (q 0.5 <= q 0.9 && q 0.9 <= q 0.99)

let test_metrics_absorb_histograms () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.observe a "d" 0.001;
  Obs.Metrics.observe a "d" 0.003;
  Obs.Metrics.observe b "d" 0.5;
  Obs.Metrics.observe b "e" 1.0;
  Obs.Metrics.absorb ~into:a b;
  (match Obs.Metrics.histograms a with
  | [ ("d", d); ("e", e) ] ->
      check_int "d merged count" 3 d.Obs.Metrics.count;
      check "d merged sum" true (abs_float (d.Obs.Metrics.sum -. 0.504) < 1e-9);
      check "d min" true (d.Obs.Metrics.min = 0.001);
      check "d max" true (d.Obs.Metrics.max = 0.5);
      check_int "e registered" 1 e.Obs.Metrics.count
  | hs -> Alcotest.fail (Fmt.str "expected d+e, got %d histograms" (List.length hs)));
  (* the merged histogram quantiles see both registries' observations *)
  check "merged max" true (Option.get (Obs.Metrics.quantile a "d" 1.) = 0.5)

(* A histogram recorded through a handle summarises as one observed by
   name, and [absorb] merges it the same way: into an empty registry, and
   into one that already holds the name. *)
let test_metrics_histogram_handle () =
  let xs = [ 3e-7; 0.002; 0.004; 0.0041; 0.5; 99.0 ] in
  let by_name = Obs.Metrics.create () and by_handle = Obs.Metrics.create () in
  List.iter (Obs.Metrics.observe by_name "d") xs;
  let h = Obs.Metrics.histogram by_handle "d" in
  check "the handle is found again" true (Obs.Metrics.histogram by_handle "d" == h);
  List.iter (Obs.Metrics.record h) xs;
  let same what a b =
    check what true (Obs.Metrics.histograms a = Obs.Metrics.histograms b);
    List.iter
      (fun q ->
        check (Fmt.str "%s: q%g" what q) true
          (Obs.Metrics.quantile a "d" q = Obs.Metrics.quantile b "d" q))
      [ 0.; 0.5; 0.9; 1. ]
  in
  same "handle = name" by_name by_handle;
  let merged src =
    let m = Obs.Metrics.create () in
    Obs.Metrics.absorb ~into:m src;
    Obs.Metrics.observe m "d" 0.01;
    Obs.Metrics.absorb ~into:m src;
    m
  in
  same "absorbed alike" (merged by_name) (merged by_handle);
  (* a registered handle with nothing recorded is not carried over *)
  let empty = Obs.Metrics.create () in
  ignore (Obs.Metrics.histogram empty "e");
  let into = Obs.Metrics.create () in
  Obs.Metrics.absorb ~into empty;
  check "an empty handle absorbs as nothing" true (Obs.Metrics.histograms into = [])

let test_report_rate_block () =
  let r = Obs.Report.create "srv" in
  (* empty histogram: qps field present (0), quantiles omitted *)
  Obs.Report.add_rate_block r ~prefix:"server" ~histogram:"server.latency"
    ~wall_s:2.0;
  let js = Obs.Json.to_string (Obs.Report.to_json r) in
  check "qps zero" true (contains js "\"server.qps\":0");
  check "no p50 when empty" false (contains js "p50_ms");
  for _ = 1 to 100 do
    Obs.Metrics.observe (Obs.Report.metrics r) "server.latency" 0.004
  done;
  Obs.Report.add_rate_block r ~prefix:"server" ~histogram:"server.latency"
    ~wall_s:2.0;
  let js = Obs.Json.to_string (Obs.Report.to_json r) in
  check "qps 50" true (contains js "\"server.qps\":50");
  check "p50 present" true (contains js "\"server.p50_ms\":");
  check "p99 present" true (contains js "\"server.p99_ms\":")

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

let test_span_tree () =
  let now = ref 0. in
  let clock () =
    let t = !now in
    now := t +. 1.;
    t
  in
  let root = Obs.Span.root ~clock "run" in
  let child = Obs.Span.enter root "phase" in
  Obs.Span.set child "k" (Obs.Json.Int 1);
  Obs.Span.set child "k" (Obs.Json.Int 2);
  Obs.Span.exit child;
  Obs.Span.exit root;
  check "child listed" true
    (List.map Obs.Span.name (Obs.Span.children root) = [ "phase" ]);
  check "attr overwritten" true
    (Obs.Span.attr child "k" = Some (Obs.Json.Int 2));
  (* fake clock ticks once per read: child start=1, stop=2; root 0..3 *)
  check "child elapsed" true (Obs.Span.elapsed child = 1.);
  check "root elapsed" true (Obs.Span.elapsed root = 3.);
  check "exit idempotent" true
    (Obs.Span.exit child;
     Obs.Span.elapsed child = 1.);
  match Obs.Span.to_json root with
  | Obs.Json.Obj (("name", Obs.Json.String "run") :: ("s", Obs.Json.Float _) :: _)
    -> ()
  | j -> Alcotest.failf "unexpected span json: %s" (Obs.Json.to_string j)

(* ------------------------------------------------------------------ *)
(* Budgets                                                              *)
(* ------------------------------------------------------------------ *)

let test_budget_limits () =
  let b = Obs.Budget.create ~max_facts:10 ~max_levels:3 () in
  check "under" true (Obs.Budget.check b ~facts:10 ~level:3 = None);
  check "facts exceed" true
    (Obs.Budget.check b ~facts:11 ~level:1 = Some (Obs.Budget.Facts 10));
  check "levels exceed" true
    (Obs.Budget.check b ~facts:0 ~level:4 = Some (Obs.Budget.Levels 3));
  check "unlimited never fires" true
    (Obs.Budget.check Obs.Budget.unlimited ~facts:max_int ~level:max_int = None)

let test_budget_deadline_fake_clock () =
  let now = ref 0. in
  let b =
    Obs.Budget.create ~clock:(fun () -> !now) ~max_ms:5. ()
  in
  check "before deadline" true (Obs.Budget.check b ~facts:0 ~level:1 = None);
  now := 0.0049;
  check "just under" true (Obs.Budget.check b ~facts:0 ~level:1 = None);
  now := 0.006;
  check "past deadline" true
    (Obs.Budget.check b ~facts:0 ~level:1 = Some (Obs.Budget.Deadline 5.))

let test_budget_meet () =
  let a = Obs.Budget.create ~max_facts:10 () in
  let b = Obs.Budget.create ~max_facts:20 ~max_levels:2 () in
  let m = Obs.Budget.meet a b in
  check "min facts" true
    (Obs.Budget.check m ~facts:11 ~level:1 = Some (Obs.Budget.Facts 10));
  check "levels inherited" true
    (Obs.Budget.check m ~facts:0 ~level:3 = Some (Obs.Budget.Levels 2))

let test_outcome_json () =
  check_str "complete" {|{"status":"complete"}|}
    (Obs.Json.to_string (Obs.Budget.outcome_to_json Obs.Budget.Complete));
  check_str "partial facts" {|{"status":"partial","reason":"max_facts","limit":7}|}
    (Obs.Json.to_string
       (Obs.Budget.outcome_to_json (Obs.Budget.Partial (Obs.Budget.Facts 7))))

(* ------------------------------------------------------------------ *)
(* Acceptance: budgeted chase on a non-terminating program              *)
(* ------------------------------------------------------------------ *)

let test_budgeted_chase_halts_partial () =
  let budget = Obs.Budget.create ~max_facts:40 () in
  let r = Chase.run ~budget transitive_sigma seed_db in
  check "not saturated" false (Chase.saturated r);
  (match Chase.outcome r with
  | Obs.Budget.Partial (Obs.Budget.Facts 40) -> ()
  | o -> Alcotest.failf "expected Partial (Facts 40), got %a" Obs.Budget.pp_outcome o);
  (* the overflowing trigger's head lands, nothing after it *)
  check_int "halted right past the budget" 41
    (Instance.size (Chase.instance r));
  (* one new fact per level *)
  check_int "40 levels" 40 (Chase.max_level r);
  check "facts_per_level all ones" true
    (Chase.facts_per_level r = List.init 40 (fun _ -> 1));
  (* the naive oracle cuts at the same point *)
  let rn =
    Naive_chase.run ~budget:(Obs.Budget.create ~max_facts:40 ())
      transitive_sigma seed_db
  in
  check_int "naive agrees" 41 (Instance.size rn.Naive_chase.instance);
  check "naive outcome agrees" true
    (rn.Naive_chase.outcome = Obs.Budget.Partial (Obs.Budget.Facts 40));
  (* and mid-pass: one pass holds ten triggers, and both cut right after
     the trigger that overflows the budget *)
  let fan =
    [ Tgds.Tgd.make ~body:[ atom "A" [ v "x" ] ] ~head:[ atom "S" [ v "x"; v "y" ] ] ]
  in
  let db = Instance.of_facts (List.init 10 (fun i -> fact "A" [ string_of_int i ])) in
  let budget () = Obs.Budget.create ~max_facts:13 () in
  check_int "indexed cuts mid-pass" 14
    (Instance.size (Chase.instance (Chase.run ~budget:(budget ()) fan db)));
  check_int "naive cuts at the same trigger" 14
    (Instance.size (Naive_chase.run ~budget:(budget ()) fan db).Naive_chase.instance)

let test_budgeted_chase_report_json () =
  let budget = Obs.Budget.create ~max_facts:40 () in
  let r = Chase.run ~budget transitive_sigma seed_db in
  let j = Obs.Report.to_json (Chase.report ~name:"acceptance" r) in
  (match Obs.Json.member "outcome" j with
  | Some o ->
      check "partial status" true
        (Obs.Json.member "status" o = Some (Obs.Json.String "partial"));
      check "max_facts reason" true
        (Obs.Json.member "reason" o = Some (Obs.Json.String "max_facts"))
  | None -> Alcotest.fail "outcome missing");
  (match Obs.Json.member "facts_per_level" j with
  | Some (Obs.Json.List (_ :: _ as levels)) ->
      check "per-level counts are ints" true
        (List.for_all (function Obs.Json.Int _ -> true | _ -> false) levels)
  | _ -> Alcotest.fail "facts_per_level missing or empty");
  (match Obs.Json.member "span" j with
  | Some sp -> (
      check "span has a duration" true
        (match Obs.Json.member "s" sp with
        | Some (Obs.Json.Float _) -> true
        | _ -> false);
      match Obs.Json.member "children" sp with
      | Some (Obs.Json.List (sat :: _)) -> (
          (* chase → saturate → per-level children with durations *)
          check "saturate child" true
            (Obs.Json.member "name" sat = Some (Obs.Json.String "saturate"));
          match Obs.Json.member "children" sat with
          | Some (Obs.Json.List (lvl :: _)) ->
              check "level child timed" true
                (match Obs.Json.member "s" lvl with
                | Some (Obs.Json.Float _) -> true
                | _ -> false)
          | _ -> Alcotest.fail "saturate span has no level children")
      | _ -> Alcotest.fail "chase span has no children")
  | None -> Alcotest.fail "span missing");
  (* counters flow from the engine's index *)
  match Obs.Json.member "counters" j with
  | Some c ->
      check "index.inserts counted" true
        (match Obs.Json.member "index.inserts" c with
        | Some (Obs.Json.Int n) -> n > 0
        | _ -> false)
  | None -> Alcotest.fail "counters missing"

let test_deadline_cuts_chase () =
  (* injected clock: each read advances 1s; deadline 1.5s from creation *)
  let now = ref 0. in
  let clock () =
    let t = !now in
    now := t +. 1.;
    t
  in
  let budget = Obs.Budget.create ~clock ~max_ms:1500. () in
  let r = Chase.run ~budget transitive_sigma seed_db in
  check "not saturated" false (Chase.saturated r);
  match Chase.outcome r with
  | Obs.Budget.Partial (Obs.Budget.Deadline _) -> ()
  | o -> Alcotest.failf "expected deadline cut, got %a" Obs.Budget.pp_outcome o

let test_level_budget_matches_max_level () =
  (* the budget's level axis is the old ?max_level cutoff *)
  let by_arg = Chase.run ~max_level:5 transitive_sigma seed_db in
  let by_budget =
    Chase.run ~budget:(Obs.Budget.create ~max_levels:5 ()) transitive_sigma
      seed_db
  in
  check_int "same size"
    (Instance.size (Chase.instance by_arg))
    (Instance.size (Chase.instance by_budget));
  check_int "same levels" (Chase.max_level by_arg) (Chase.max_level by_budget);
  check "budget reports the cut" true
    (Chase.outcome by_budget = Obs.Budget.Partial (Obs.Budget.Levels 5))

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "render" `Quick test_json_render;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "number grammar" `Quick test_json_number_grammar;
          Alcotest.test_case "map_floats" `Quick test_json_map_floats;
          Alcotest.test_case "member" `Quick test_json_member;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "histograms" `Quick test_metrics_histograms;
          Alcotest.test_case "quantile" `Quick test_metrics_quantile;
          Alcotest.test_case "absorb merges histograms" `Quick
            test_metrics_absorb_histograms;
          Alcotest.test_case "histogram handle" `Quick
            test_metrics_histogram_handle;
          Alcotest.test_case "report rate block" `Quick test_report_rate_block;
        ] );
      ("spans", [ Alcotest.test_case "tree" `Quick test_span_tree ]);
      ( "budgets",
        [
          Alcotest.test_case "limits" `Quick test_budget_limits;
          Alcotest.test_case "deadline (fake clock)" `Quick
            test_budget_deadline_fake_clock;
          Alcotest.test_case "meet" `Quick test_budget_meet;
          Alcotest.test_case "outcome json" `Quick test_outcome_json;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "budgeted chase halts with Partial" `Quick
            test_budgeted_chase_halts_partial;
          Alcotest.test_case "report JSON carries levels and durations" `Quick
            test_budgeted_chase_report_json;
          Alcotest.test_case "deadline budget cuts the chase" `Quick
            test_deadline_cuts_chase;
          Alcotest.test_case "level budget ≡ max_level" `Quick
            test_level_budget_matches_max_level;
        ] );
    ]
