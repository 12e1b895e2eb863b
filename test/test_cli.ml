(* Integration tests driving the built `guarded` CLI end to end: parse a
   program from disk, chase, evaluate open/closed world, classify, decide
   equivalence, run the clique reduction. *)

let check = Alcotest.(check bool)

let cli =
  (* tests run from _build/default/test; the binary is a declared dep *)
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/guarded_cli.exe"

let run_cli ?stdin args =
  let out_file = Filename.temp_file "guarded_cli" ".out" in
  let err_file = Filename.temp_file "guarded_cli" ".err" in
  let cmd =
    Filename.quote_command cli args ?stdin ~stdout:out_file ~stderr:err_file
  in
  let status = Sys.command cmd in
  let slurp path =
    if Sys.file_exists path then (
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s)
    else ""
  in
  let out = slurp out_file and err = slurp err_file in
  Sys.remove out_file;
  Sys.remove err_file;
  (status, out, err)

(* programs are checked in; the directory is a declared source_tree dep *)
let prog name = Filename.concat "../examples/programs" name

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let test_eval () =
  let file = prog "prog_eval.gd" in
  let status, out, err = run_cli [ "eval"; file; "-q"; "q" ] in
  check "exit 0" true (status = 0);
  check (Fmt.str "says true (out=%S err=%S)" out err) true (contains out "true");
  let _, out2, _ = run_cli [ "eval"; file; "-q"; "who" ] in
  check "ada is certain" true (contains out2 "ada")

let test_eval_fpt_flag () =
  let file = prog "prog_fpt.gd" in
  let status, out, _ = run_cli [ "eval"; file; "-q"; "q"; "--fpt" ] in
  check "exit 0" true (status = 0);
  check "fpt engine agrees" true (contains out "true")

let test_chase () =
  let file = prog "prog_chase.gd" in
  let status, out, _ = run_cli [ "chase"; file ] in
  check "exit 0" true (status = 0);
  check "saturated" true (contains out "saturated");
  check "derived course fact" true (contains out "course(");
  check "null printed" true (contains out "_:n")

let test_classify () =
  let file = prog "prog_cls.gd" in
  let status, out, _ = run_cli [ "classify"; file ] in
  check "exit 0" true (status = 0);
  check "linear" true (contains out "linear (L):           true");
  check "guarded" true (contains out "guarded (G):          true")

let test_cqs_eval_and_optimize () =
  let file = prog "prog_cqs.gd" in
  let status, out, _ = run_cli [ "cqs-eval"; file; "-q"; "q"; "--optimize" ] in
  check "exit 0" true (status = 0);
  check "answer o1" true (contains out "o1");
  check "optimized to single atom" true (contains out "optimized query")

let test_equiv () =
  let file = prog "prog_eq.gd" in
  let status, out, _ = run_cli [ "equiv"; file; "-q"; "q"; "-k"; "1" ] in
  check "exit 0" true (status = 0);
  check "holds" true (contains out "holds")

let test_rewrite () =
  let file = prog "prog_rw.gd" in
  let status, out, _ = run_cli [ "rewrite"; file; "-q"; "q" ] in
  check "exit 0" true (status = 0);
  check "original disjunct" true (contains out "s(");
  check "rewritten disjunct" true (contains out "a(")

let test_clique () =
  let status, out, _ = run_cli [ "clique"; "-n"; "7"; "-k"; "3"; "--seed"; "2" ] in
  check "exit 0" true (status = 0);
  check "reports both verdicts" true (contains out "direct search")

let test_terminates () =
  let file = prog "prog_term.gd" in
  let status, out, _ = run_cli [ "terminates"; file ] in
  check "exit 0" true (status = 0);
  check "weakly acyclic" true (contains out "weakly acyclic:            true");
  check "edges printed" true (contains out "->")

let test_witness () =
  let file = prog "prog_wit.gd" in
  let status, out, _ = run_cli [ "witness"; file; "-n"; "2" ] in
  check "exit 0" true (status = 0);
  check "model verified" true (contains out "model: true")

let test_reduce () =
  let file = prog "prog_red.gd" in
  let status, out, _ = run_cli [ "reduce"; file; "-q"; "q" ] in
  check "exit 0" true (status = 0);
  check "satisfies sigma" true (contains out "satisfies Σ: true")

(* The --stats report must be schema-stable: after normalising the (only
   volatile) float durations, the JSON for a fixed program is pinned
   byte-for-byte — keys, key order, counter values, span shape. *)
let golden_stats =
  String.concat ""
    [
      {|{"name":"chase","outcome":{"status":"complete"},"saturated":true,|};
      {|"max_level":2,"facts":3,"facts_per_level":[1,1],"triggers_fired":2,|};
      {|"triggers_dismissed":0,"counters":{"index.duplicates":0,|};
      {|"index.inserts":3,"index.probes":0,"index.removes":0,|};
      {|"joiner.backtracks":0,|};
      {|"joiner.candidates":2},"histograms":{},"span":{"name":"chase",|};
      {|"s":0.000000,"children":[{"name":"saturate","s":0.000000,"children":[|};
      {|{"name":"level","s":0.000000,"level":1,"triggers_fired":1,|};
      {|"triggers_dismissed":0,"new_facts":1},|};
      {|{"name":"level","s":0.000000,"level":2,"triggers_fired":1,|};
      {|"triggers_dismissed":0,"new_facts":1},|};
      {|{"name":"level","s":0.000000,"level":3,"triggers_fired":0,|};
      {|"triggers_dismissed":0,"new_facts":0}]}]}}|};
    ]

let test_chase_stats_golden () =
  let stats = Filename.temp_file "guarded_stats" ".json" in
  let status, _, err =
    run_cli [ "chase"; prog "prog_chase.gd"; "--stats"; stats ]
  in
  check (Fmt.str "exit 0 (err=%S)" err) true (status = 0);
  let ic = open_in stats in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove stats;
  match Obs.Json.parse raw with
  | Error e -> Alcotest.failf "stats file is not JSON: %s" e
  | Ok j ->
      (* key/type pins that must survive any refactor *)
      check "name is a string" true
        (match Obs.Json.member "name" j with
        | Some (Obs.Json.String _) -> true
        | _ -> false);
      check "outcome.status present" true
        (match Obs.Json.member "outcome" j with
        | Some o -> (
            match Obs.Json.member "status" o with
            | Some (Obs.Json.String _) -> true
            | _ -> false)
        | None -> false);
      check "facts_per_level is an int list" true
        (match Obs.Json.member "facts_per_level" j with
        | Some (Obs.Json.List l) ->
            List.for_all (function Obs.Json.Int _ -> true | _ -> false) l
        | _ -> false);
      check "counters is an object" true
        (match Obs.Json.member "counters" j with
        | Some (Obs.Json.Obj _) -> true
        | _ -> false);
      (* byte-level golden, volatile timings zeroed *)
      let normalized =
        Obs.Json.to_string (Obs.Json.map_floats (fun _ -> 0.) j)
      in
      Alcotest.(check string) "normalized report matches golden" golden_stats
        normalized

let test_chase_budget_flags () =
  let stats = Filename.temp_file "guarded_stats" ".json" in
  let status, out, err =
    run_cli
      [
        "chase"; prog "prog_budget.gd"; "--max-level"; "1000";
        "--budget-facts"; "25"; "--stats"; stats;
      ]
  in
  check (Fmt.str "graceful exit (err=%S)" err) true (status = 0);
  check "reports the partial cut" true (contains out "partial: fact budget (25)");
  (* trigger-atomic cutoff: the overflowing head lands, nothing more *)
  let fact_lines =
    String.split_on_char '\n' out
    |> List.filter (fun l -> String.length l > 0 && l.[0] = 's')
  in
  check "bounded materialisation" true (List.length fact_lines = 26);
  let ic = open_in stats in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove stats;
  match Obs.Json.parse raw with
  | Error e -> Alcotest.failf "stats file is not JSON: %s" e
  | Ok j -> (
      match Obs.Json.member "outcome" j with
      | Some o ->
          check "partial status" true
            (Obs.Json.member "status" o = Some (Obs.Json.String "partial"));
          check "max_facts reason" true
            (Obs.Json.member "reason" o = Some (Obs.Json.String "max_facts"))
      | None -> Alcotest.fail "outcome missing")

let test_errors_reported () =
  let file = prog "prog_bad.gd" in
  let status, _, err = run_cli [ "eval"; file ] in
  check "usage-error exit 2" true (status = 2);
  check "position in message" true (contains err "prog_bad.gd:1:");
  let status2, _, err2 = run_cli [ "eval"; prog "prog_eval.gd"; "-q"; "nope" ] in
  check "missing query reported" true (status2 = 2 && contains err2 "no query named")

(* Exit-code contract: 2 = usage/input error (bad program, precondition
   violation, malformed flag value), 1 = runtime fault; always a one-line
   diagnostic on stderr, never a backtrace. *)
let test_exit_codes () =
  let status, _, err =
    run_cli [ "eval"; prog "prog_unguarded.gd"; "-q"; "q"; "--fpt" ]
  in
  check "unguarded --fpt exits 2" true (status = 2);
  check "one-line diagnostic" true
    (contains err "guarded"
    && List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' err)) = 1);
  check "no backtrace" false (contains err "Raised at");
  let status2, _, err2 =
    run_cli [ "chase"; prog "prog_chase.gd"; "--fault-plan"; "bogus" ]
  in
  check "bad fault plan exits 2" true (status2 = 2);
  check "plan error names the trigger" true (contains err2 "bogus");
  (* one engine: naming the removed naive one is a command-line usage
     error (exit 124, cmdliner's code for one), not a runtime fault *)
  let status3, _, err3 =
    run_cli [ "chase"; prog "prog_chase.gd"; "--engine"; "naive" ]
  in
  check "--engine naive is a usage error" true (status3 = 124);
  check "usage error names the engine" true (contains err3 "indexed")

(* --fpt holds for non-Boolean queries too: an unguarded program is
   refused (exit 2), never answered by the plain chase *)
let test_eval_fpt_unguarded_open () =
  let file = Filename.temp_file "guarded_unguarded" ".gd" in
  let oc = open_out file in
  output_string oc
    "s(X,Y), s(Y,Z) -> t(X,Z).\ns(a,b).\ns(b,c).\nw(X) :- t(X,Z).\n";
  close_out oc;
  let status, out, err = run_cli [ "eval"; file; "-q"; "w"; "--fpt" ] in
  let status0, out0, _ = run_cli [ "eval"; file; "-q"; "w" ] in
  Sys.remove file;
  check "unguarded --fpt exits 2" true (status = 2);
  check "no answers printed" true (out = "");
  check "diagnostic names guardedness" true (contains err "guarded");
  check "without --fpt the chase answers" true (status0 = 0 && out0 = "(a)\n")

(* The checkpoint written for a fixed program is pinned byte-for-byte
   (schema, key order, fact encoding). Null ids are the only per-process
   volatile part; they are normalised to 0 before comparing. *)
let golden_checkpoint =
  String.concat ""
    [
      {|{"schema":"guarded-chase-checkpoint","version":1,"engine":"indexed",|};
      {|"policy":"oblivious","level":2,"saturated":true,"null_count":1,|};
      {|"triggers_fired":2,"triggers_dismissed":0,|};
      {|"counters":{"index.duplicates":0,"index.inserts":3,"index.probes":0,|};
      {|"index.removes":0,"joiner.backtracks":0,"joiner.candidates":2},|};
      {|"facts":[{"p":"prof","l":0,"a":["ada"]},|};
      {|{"p":"teaches","l":1,"a":["ada",{"n":0}]},|};
      {|{"p":"course","l":2,"a":[{"n":0}]}]}|};
    ]

let rec zero_nulls j =
  match j with
  | Obs.Json.Obj [ ("n", Obs.Json.Int _) ] -> Obs.Json.Obj [ ("n", Obs.Json.Int 0) ]
  | Obs.Json.Obj fields ->
      Obs.Json.Obj (List.map (fun (k, v) -> (k, zero_nulls v)) fields)
  | Obs.Json.List l -> Obs.Json.List (List.map zero_nulls l)
  | j -> j

let test_checkpoint_golden () =
  let ck = Filename.temp_file "guarded_ck" ".json" in
  let status, _, err =
    run_cli [ "chase"; prog "prog_chase.gd"; "--checkpoint"; ck ]
  in
  check (Fmt.str "exit 0 (err=%S)" err) true (status = 0);
  let ic = open_in ck in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove ck;
  match Obs.Json.parse raw with
  | Error e -> Alcotest.failf "checkpoint is not JSON: %s" e
  | Ok j ->
      Alcotest.(check string) "normalized checkpoint matches golden"
        golden_checkpoint
        (Obs.Json.to_string (zero_nulls j))

(* Kill a budgeted chase mid-run with an injected fault, resume from the
   emitted checkpoint in a fresh process, and require the resumed stats
   report to agree with an uninterrupted run on everything but timings
   (histograms/span are cut off: they only describe the post-resume part). *)
let test_fault_kill_and_resume () =
  let ck = Filename.temp_file "guarded_ck" ".json" in
  let s_base = Filename.temp_file "guarded_stats" ".json" in
  let s_res = Filename.temp_file "guarded_stats" ".json" in
  let budget = [ "--max-level"; "1000"; "--budget-facts"; "40" ] in
  let status, _, _ =
    run_cli
      ([ "chase"; prog "prog_budget.gd" ] @ budget
      @ [ "--fault-plan"; "hit:60"; "--retries"; "0";
          "--checkpoint"; ck ])
  in
  check "killed run exits 1" true (status = 1);
  let status2, _, err2 =
    run_cli ([ "chase"; prog "prog_budget.gd" ] @ budget @ [ "--resume"; ck; "--stats"; s_res ])
  in
  check (Fmt.str "resumed run exits 0 (err=%S)" err2) true (status2 = 0);
  let status3, _, _ =
    run_cli ([ "chase"; prog "prog_budget.gd" ] @ budget @ [ "--stats"; s_base ])
  in
  check "baseline exits 0" true (status3 = 0);
  let slurp path =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let prefix s =
    (* keep name/outcome/fact counts/trigger totals/counters *)
    match String.index_opt s '{' with
    | None -> s
    | Some _ -> (
        match Obs.Json.parse s with
        | Error _ -> s
        | Ok j ->
            let keep k = Obs.Json.member k j in
            Obs.Json.to_string
              (Obs.Json.Obj
                 (List.filter_map
                    (fun k -> Option.map (fun v -> (k, v)) (keep k))
                    [
                      "name"; "outcome"; "saturated"; "max_level"; "facts";
                      "facts_per_level"; "triggers_fired"; "triggers_dismissed";
                      "counters";
                    ])))
  in
  let base = slurp s_base and resumed = slurp s_res in
  List.iter Sys.remove [ ck; s_base; s_res ];
  Alcotest.(check string) "resumed stats agree with uninterrupted run"
    (prefix base) (prefix resumed)

(* serve: apply the committed mutation log to university.gd; the final
   instance is the fresh chase of the final base, and every maintenance
   phase shows up in the per-mutation trace. *)
let test_serve () =
  let status, out, err =
    run_cli
      [ "serve"; prog "university.gd"; "--log"; prog "university.mut" ]
  in
  check (Fmt.str "exit 0 (err=%S)" err) true (status = 0);
  check "initial saturation reported" true
    (contains out "% serve: store saturated, 9 facts");
  check "insert traced" true (contains out "% +prof(turing): 6 facts added");
  check "delete phases traced" true
    (contains out "% -prof(ada): overdeleted 6, rederived 1");
  check "no-op detected" true (contains out "% -prof(hopper): no-op");
  check "summary line" true
    (contains out "5 mutations applied (2 inserts, 2 deletes, 1 no-ops)");
  check "ada's subtree gone" false (contains out "faculty(ada)");
  check "turing's chain derived" true (contains out "teaches(turing,");
  check "base course survives" true (contains out "course(logic)")

(* serve inherits the CLI exit-code contract: 2 = usage/input error with
   a one-line diagnostic, 1 = runtime refusal (unsaturated store). *)
let test_serve_exit_codes () =
  let one_line err =
    List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' err))
    = 1
    && not (contains err "Raised at")
  in
  (* missing log file *)
  let status, _, err =
    run_cli [ "serve"; prog "university.gd"; "--log"; "no_such.mut" ]
  in
  check "missing log exits 2" true (status = 2);
  check "missing log: one-line diagnostic" true (one_line err);
  (* malformed log *)
  let bad = Filename.temp_file "guarded_bad" ".mut" in
  let oc = open_out bad in
  output_string oc "prof(x).\n";
  close_out oc;
  let status2, _, err2 =
    run_cli [ "serve"; prog "university.gd"; "--log"; bad ]
  in
  Sys.remove bad;
  check "unsigned mutation exits 2" true (status2 = 2);
  check "parse error names the position" true
    (one_line err2 && contains err2 ":1:");
  (* an unsaturated store refuses to serve: runtime error, exit 1 *)
  let status3, _, err3 =
    run_cli
      [
        "serve"; prog "prog_budget.gd"; "--log"; prog "university.mut";
        "--max-level"; "2";
      ]
  in
  check "unsaturated store exits 1" true (status3 = 1);
  check "refusal is one line" true
    (one_line err3 && contains err3 "saturat")

(* The serve --stats report is schema-stable: float durations are the
   only volatile part for a fixed program + log (nulls are allocated
   deterministically from a fresh counter), so the normalised JSON is
   pinned byte-for-byte like the chase golden above. *)
let test_serve_stats_golden () =
  let stats = Filename.temp_file "guarded_stats" ".json" in
  let status, _, err =
    run_cli
      [
        "serve"; prog "university.gd"; "--log"; prog "university.mut";
        "--stats"; stats;
      ]
  in
  check (Fmt.str "exit 0 (err=%S)" err) true (status = 0);
  let ic = open_in stats in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove stats;
  match Obs.Json.parse raw with
  | Error e -> Alcotest.failf "stats file is not JSON: %s" e
  | Ok j ->
      check "name is serve" true
        (Obs.Json.member "name" j = Some (Obs.Json.String "serve"));
      check "mutations counted" true
        (Obs.Json.member "mutations" j = Some (Obs.Json.Int 5));
      check "saturated" true
        (Obs.Json.member "saturated" j = Some (Obs.Json.Bool true));
      (* every maintenance counter present with its pinned value *)
      (match Obs.Json.member "counters" j with
      | Some c ->
          List.iter
            (fun (k, n) ->
              check (k ^ " pinned") true
                (Obs.Json.member k c = Some (Obs.Json.Int n)))
            [
              ("incr.inserts", 2); ("incr.deletes", 2); ("incr.noops", 1);
              ("incr.repaired", 9); ("incr.overdeleted", 11);
              ("incr.rederived", 2); ("incr.deleted", 9);
              ("index.removes", 11);
            ]
      | None -> Alcotest.fail "counters missing");
      (* per-mutation spans nest under the serve root, in log order *)
      (match Obs.Json.member "span" j with
      | Some s -> (
          match Obs.Json.member "children" s with
          | Some (Obs.Json.List kids) ->
              let tag k field =
                match Obs.Json.member field k with
                | Some (Obs.Json.String n) -> n
                | _ -> "?"
              in
              Alcotest.(check (list string))
                "span children are chase + one span per mutation"
                [
                  "chase"; "insert:prof(turing)"; "insert:teaches(ada,logic)";
                  "delete:prof(ada)"; "delete:teaches(ada,logic)";
                  "delete:prof(hopper)";
                ]
                (List.map
                   (fun k ->
                     match tag k "name" with
                     | "chase" -> "chase"
                     | n -> n ^ ":" ^ tag k "fact")
                   kids)
          | _ -> Alcotest.fail "serve span has no children")
      | None -> Alcotest.fail "span missing")

(* serve determinism end to end: two processes, one on the default
   engine and one naming it explicitly, print identical stdout and write
   identical checkpoint bytes. *)
let test_serve_determinism () =
  let slurp path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let run engine_flags =
    let ck = Filename.temp_file "guarded_ck" ".json" in
    let status, out, err =
      run_cli
        ([ "serve"; prog "university.gd"; "--log"; prog "university.mut" ]
        @ engine_flags @ [ "--checkpoint"; ck ])
    in
    let cks = slurp ck in
    Sys.remove ck;
    check
      (Fmt.str "serve %s exits 0 (err=%S)" (String.concat " " engine_flags) err)
      true (status = 0);
    (out, cks)
  in
  let od, cd = run [] in
  let oi, ci = run [ "--engine"; "indexed" ] in
  Alcotest.(check string) "stdout matches indexed engine" oi od;
  Alcotest.(check string) "checkpoint matches indexed engine" ci cd

(* A serve checkpoint of the maintained store resumes under `chase` as a
   no-op continuation of a fresh chase of the final base. *)
let test_serve_checkpoint_resumes () =
  let ck = Filename.temp_file "guarded_ck" ".json" in
  let status, out, _ =
    run_cli
      [
        "serve"; prog "university.gd"; "--log"; prog "university.mut";
        "--checkpoint"; ck;
      ]
  in
  check "serve exits 0" true (status = 0);
  let status2, out2, err2 =
    run_cli [ "chase"; prog "university.gd"; "--resume"; ck ]
  in
  Sys.remove ck;
  check (Fmt.str "resume exits 0 (err=%S)" err2) true (status2 = 0);
  check "resume is a no-op (saturated)" true (contains out2 "saturated");
  (* both print the same sorted fact lines *)
  let facts s =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.length l > 0 && l.[0] <> '%')
  in
  Alcotest.(check (list string))
    "resumed instance equals the maintained one" (facts out) (facts out2)

let facts_of s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.length l > 0 && l.[0] <> '%')

let slurp path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let with_tmpdir f =
  let dir = Filename.temp_file "guarded_wal" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

(* A crash mid-WAL-append (a fault injected at the fsync boundary leaves
   a torn record) recovers to a final state byte-identical to the
   uninterrupted run: same checkpoint bytes, same fact lines. *)
let test_serve_wal_crash_recovery () =
  with_tmpdir (fun dir ->
      let ck_ref = Filename.temp_file "guarded_ckref" ".json" in
      let ck_rec = Filename.temp_file "guarded_ckrec" ".json" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove ck_ref;
          Sys.remove ck_rec)
        (fun () ->
          let status, out_ref, _ =
            run_cli
              [
                "serve"; prog "university.gd"; "--log"; prog "university.mut";
                "--checkpoint"; ck_ref;
              ]
          in
          check "reference run exits 0" true (status = 0);
          let wal = Filename.concat dir "wal" in
          let status1, _, err1 =
            run_cli
              [
                "serve"; prog "university.gd"; "--log"; prog "university.mut";
                "--wal"; wal; "--checkpoint-every"; "2"; "--fault-plan";
                "point:wal.fsync:3";
              ]
          in
          check (Fmt.str "crashed run exits 1 (err=%S)" err1) true
            (status1 = 1);
          check "crash is diagnosed" true (contains err1 "wal.fsync");
          let status2, out_rec, err2 =
            run_cli
              [
                "serve"; prog "university.gd"; "--log"; prog "university.mut";
                "--wal"; wal; "--recover"; "--checkpoint-every"; "2";
                "--checkpoint"; ck_rec;
              ]
          in
          check (Fmt.str "recovered run exits 0 (err=%S)" err2) true
            (status2 = 0);
          check "recovery is reported" true (contains out_rec "recover:");
          check "torn record was truncated" true (contains out_rec "1 truncated");
          Alcotest.(check (list string))
            "recovered instance equals the uninterrupted one"
            (facts_of out_ref) (facts_of out_rec);
          check "recovered checkpoint is byte-identical" true
            (slurp ck_ref = slurp ck_rec)))

(* --recover needs a WAL directory to recover from. *)
let test_serve_recover_requires_wal () =
  let status, _, err =
    run_cli
      [ "serve"; prog "university.gd"; "--log"; prog "university.mut";
        "--recover" ]
  in
  check "exits 2" true (status = 2);
  check "names the missing flag" true (contains err "--wal")

(* Malformed log lines: strict mode (default) aborts naming the line and
   its content; --strict-log=false skips them with a warning and applies
   the rest. *)
let test_serve_strict_log () =
  let log = Filename.temp_file "guarded_badlog" ".mut" in
  Fun.protect
    ~finally:(fun () -> Sys.remove log)
    (fun () ->
      let oc = open_out log in
      output_string oc "+prof(turing).\nthis is not a mutation\n-prof(hopper).\n";
      close_out oc;
      let status, _, err =
        run_cli [ "serve"; prog "university.gd"; "--log"; log ]
      in
      check "strict mode exits 2" true (status = 2);
      check "diagnostic names the line" true (contains err ":2:");
      check "diagnostic shows the content" true
        (contains err "this is not a mutation");
      let status2, out2, err2 =
        run_cli
          [
            "serve"; prog "university.gd"; "--log"; log; "--strict-log";
            "false";
          ]
      in
      check (Fmt.str "lenient mode exits 0 (err=%S)" err2) true (status2 = 0);
      check "warning names the line" true (contains err2 ":2:");
      check "good mutations still applied" true
        (contains out2 "+prof(turing): "))

(* A poisoned mutation (faults on every rung of the ladder) is
   quarantined: the run keeps serving, later mutations apply, and the
   exit code reports the quarantine. *)
let test_serve_quarantine () =
  let status, out, err =
    run_cli
      [
        "serve"; prog "university.gd"; "--log"; prog "university.mut";
        "--retries"; "2"; "--fault-plan";
        "point:incr.delete:1,point:incr.delete:1";
      ]
  in
  check "quarantine exits 1" true (status = 1);
  check "ladder transcript printed" true (contains out "ladder:");
  check "mutation reported quarantined" true (contains out "quarantined");
  check "stderr diagnostic names the mutation" true
    (contains err "-prof(ada)");
  check "later mutations still apply" true
    (contains out "-teaches(ada,logic): overdeleted");
  check "summary counts the quarantine" true
    (contains out "1 mutation(s) quarantined")

(* A lenient run over a log carrying both malformed lines and a poison
   mutation keeps serving — and the stats report accounts for both:
   serve.rejected_lines counts exactly the skipped lines, the
   quarantined field the refused mutation. *)
let test_serve_rejected_lines_counter () =
  let log = Filename.temp_file "guarded_mixedlog" ".mut" in
  let stats = Filename.temp_file "guarded_stats" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove log;
      if Sys.file_exists stats then Sys.remove stats)
    (fun () ->
      let oc = open_out log in
      output_string oc
        "+prof(turing).\n\
         garbage line one\n\
         -prof(ada).\n\
         &&& also not a mutation\n\
         -prof(hopper).\n";
      close_out oc;
      let status, out, err =
        run_cli
          [
            "serve"; prog "university.gd"; "--log"; log; "--strict-log";
            "false"; "--retries"; "2"; "--fault-plan";
            "point:incr.delete:1,point:incr.delete:1"; "--stats"; stats;
          ]
      in
      check "quarantine still exits 1" true (status = 1);
      check "both malformed lines warned" true
        (contains err ":2:" && contains err ":4:");
      check "good mutations around the noise applied" true
        (contains out "+prof(turing): ");
      check "poison mutation quarantined" true
        (contains out "1 mutation(s) quarantined");
      let ic = open_in stats in
      let raw = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Obs.Json.parse raw with
      | Error e -> Alcotest.failf "stats file is not JSON: %s" e
      | Ok j ->
          check "quarantined field" true
            (Obs.Json.member "quarantined" j = Some (Obs.Json.Int 1));
          (match Obs.Json.member "counters" j with
          | Some c ->
              check "rejected lines counted exactly" true
                (Obs.Json.member "serve.rejected_lines" c
                = Some (Obs.Json.Int 2))
          | None -> Alcotest.fail "counters missing"))

(* A transient injected fault is absorbed by the supervisor: same exit
   code and facts as a clean run, plus a recovery note. *)
let test_fault_recovery_note () =
  let status, out, err =
    run_cli
      [ "chase"; prog "prog_chase.gd"; "--fault-plan"; "hit:3"; "--retries"; "2" ]
  in
  check (Fmt.str "recovered run exits 0 (err=%S)" err) true (status = 0);
  check "recovery note printed" true (contains out "recovered after");
  check "still saturates" true (contains out "saturated");
  check "derived course fact" true (contains out "course(")

(* An unset --retries is 2 once --fault-plan is given, so the same
   transient fault is absorbed without naming a retry budget. *)
let test_fault_default_retries () =
  let status, out, err =
    run_cli [ "chase"; prog "prog_chase.gd"; "--fault-plan"; "hit:3" ]
  in
  check (Fmt.str "recovered run exits 0 (err=%S)" err) true (status = 0);
  check "recovery note printed" true
    (contains out "% recovered after 1 failed attempt(s)")

(* A fact over a predicate outside Σ and q is data: a Boolean `eval`
   answers on both routes, as `eval -q who` and `answers` do. *)
let test_eval_foreign_predicate () =
  let file = Filename.temp_file "guarded_foreign" ".gd" in
  let oc = open_out file in
  output_string oc
    "prof(ada).\nunrelated(zed).\nprof(X) -> teaches(X,C).\n\
     q() :- teaches(X,C).\n";
  close_out oc;
  let runs =
    List.map
      (fun flags -> run_cli ([ "eval"; file; "-q"; "q" ] @ flags))
      [ []; [ "--fpt" ] ]
  in
  Sys.remove file;
  List.iter
    (fun (status, out, err) ->
      check (Fmt.str "exit 0 (err=%S)" err) true (status = 0);
      check "holds, exactly" true (out = "true\n"))
    runs

(* A chase that fails every attempt names the fault that killed it. *)
let test_fault_failure_names_fault () =
  let status, _, err =
    run_cli
      [ "chase"; prog "prog_chase.gd"; "--fault-plan"; "point:engine.pass:*" ]
  in
  check "exhausted run exits 1" true (status = 1);
  check (Fmt.str "last fault named (err=%S)" err) true
    (contains err
       "all 3 attempts exhausted; last: injected fault at engine.pass (hit 1)")

(* server: saturate once, then answer protocol requests from stdin. The
   daemon's own behavior is unit-tested in test_server.ml; here we pin
   the CLI wrapper — banner, summary, exit codes. *)
let with_request_file lines f =
  let req = Filename.temp_file "guarded_req" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove req)
    (fun () ->
      let oc = open_out req in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      f req)

let test_server_answers () =
  with_request_file
    [
      "answers q(X) :- prof(X).";
      "count q(C) :- course(C).";
      "gibberish";
    ]
    (fun req ->
      let status, out, err =
        run_cli ~stdin:req [ "server"; prog "university.gd" ]
      in
      check (Fmt.str "request errors exit 1 (err=%S)" err) true (status = 1);
      check "banner reports the frozen store" true
        (contains out "% server: store saturated");
      check "profs answered" true (contains out "1 ok 1 (ada)");
      check "count answered" true (contains out "2 ok count=");
      check "malformed request answered in place" true
        (contains out "3 error unknown verb");
      check "summary counts classes" true
        (contains out "3 request(s) served (2 ok, 0 partial, 1 error(s), 0 \
                       quarantined)"))

let test_server_clean_exit () =
  with_request_file
    [ "answers q(X) :- prof(X)."; "% noise"; "" ]
    (fun req ->
      let status, out, err =
        run_cli ~stdin:req [ "server"; prog "university.gd"; "--workers"; "2" ]
      in
      check (Fmt.str "clean run exits 0 (err=%S)" err) true (status = 0);
      check "summary" true (contains out "1 request(s) served"))

let test_server_quarantine () =
  with_request_file
    [
      "answers q(X) :- prof(X).";
      "answers q(X) :- prof(X).";
      "count q(C) :- course(C).";
    ]
    (fun req ->
      let status, out, _ =
        run_cli ~stdin:req
          [
            "server"; prog "university.gd"; "--fault-plan";
            "point:engine.answer:1";
          ]
      in
      check "quarantine exits 1" true (status = 1);
      check "fault reported in the reply" true
        (contains out "1 error injected fault");
      check "repeat refused" true (contains out "2 quarantined");
      check "server keeps answering" true (contains out "3 ok count="))

let test_server_exit_codes () =
  (* fault injection arms a process-global hook: concurrent workers are
     a usage error, like any malformed flag combination *)
  let status, _, err =
    run_cli
      [
        "server"; prog "university.gd"; "--fault-plan"; "point:engine.answer:1";
        "--workers"; "4";
      ]
  in
  check "fault plan with workers exits 2" true (status = 2);
  check "diagnostic names the conflict" true (contains err "--workers 1");
  let status2, _, _ = run_cli [ "server"; prog "university.gd"; "--workers"; "0" ] in
  check "zero workers exits 2" true (status2 = 2)

(* SIGTERM drains promptly: an {e idle} server notices the flipped stop
   flag with no further request line — the main domain's blocking read
   returns EINTR, a reader on a spawned domain sees it on its 50 ms
   tick — completes in-flight work, reports the drain, and exits 0. (A
   reader sitting in [read] on a spawned domain would not be woken, and
   the server would hang in drain until one more request arrived.) *)
let sigterm_drain ~workers =
  let out_file = Filename.temp_file "guarded_srv" ".out" in
  let err_file = Filename.temp_file "guarded_srv" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out_file;
      Sys.remove err_file)
    (fun () ->
      let fd_out =
        Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
      in
      let fd_err =
        Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
      in
      let r_in, w_in = Unix.pipe ~cloexec:false () in
      let pid =
        Unix.create_process cli
          [| cli; "server"; prog "university.gd"; "--workers"; string_of_int workers |]
          r_in fd_out fd_err
      in
      Unix.close r_in;
      Unix.close fd_out;
      Unix.close fd_err;
      let oc = Unix.out_channel_of_descr w_in in
      output_string oc "answers q(X) :- prof(X).\n";
      flush oc;
      (* wait for the first reply: the saturation is done and the serve
         loop is live, so the SIGTERM handler is installed *)
      let slurp_out () =
        let ic = open_in out_file in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let rec await tries =
        if tries = 0 then Alcotest.fail "server never replied"
        else if contains (slurp_out ()) "1 ok" then ()
        else (
          Unix.sleepf 0.05;
          await (tries - 1))
      in
      await 200;
      Unix.kill pid Sys.sigterm;
      (* no further input: the idle server must exit on its own, and
         promptly — poll for termination with a deadline far above the
         50 ms readiness tick but far below "waits for the next line" *)
      let t0 = Unix.gettimeofday () in
      let deadline = 10.0 in
      let rec await_exit () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if Unix.gettimeofday () -. t0 > deadline then begin
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid);
              Alcotest.fail "idle server did not drain after SIGTERM"
            end
            else begin
              Unix.sleepf 0.02;
              await_exit ()
            end
        | _, status -> status
      in
      let status = await_exit () in
      let waited = Unix.gettimeofday () -. t0 in
      close_out_noerr oc;
      let out = slurp_out () in
      check "drained run exits 0" true (status = Unix.WEXITED 0);
      check
        (Fmt.str "drain at workers %d is prompt (%.2fs)" workers waited)
        true (waited < 5.0);
      check "drain reported" true (contains out "% server: drained on signal"))

let test_server_sigterm_drain () = sigterm_drain ~workers:1

(* at 2 and 4 workers the idle reader may sit on any domain; three
   drains each, so a reader that blocks on a spawned domain is met *)
let test_server_sigterm_drain_workers () =
  List.iter
    (fun workers ->
      for _ = 1 to 3 do
        sigterm_drain ~workers
      done)
    [ 2; 4 ]

let () =
  Alcotest.run "cli"
    [
      ( "cli",
        [
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "eval --fpt" `Quick test_eval_fpt_flag;
          Alcotest.test_case "chase" `Quick test_chase;
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "cqs-eval --optimize" `Quick test_cqs_eval_and_optimize;
          Alcotest.test_case "equiv" `Quick test_equiv;
          Alcotest.test_case "rewrite" `Quick test_rewrite;
          Alcotest.test_case "clique" `Quick test_clique;
          Alcotest.test_case "terminates" `Quick test_terminates;
          Alcotest.test_case "witness" `Quick test_witness;
          Alcotest.test_case "reduce" `Quick test_reduce;
          Alcotest.test_case "chase --stats golden" `Quick test_chase_stats_golden;
          Alcotest.test_case "chase budget flags" `Quick test_chase_budget_flags;
          Alcotest.test_case "errors" `Quick test_errors_reported;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "eval --fpt unguarded non-Boolean" `Quick
            test_eval_fpt_unguarded_open;
          Alcotest.test_case "checkpoint golden" `Quick test_checkpoint_golden;
          Alcotest.test_case "serve" `Quick test_serve;
          Alcotest.test_case "serve exit codes" `Quick test_serve_exit_codes;
          Alcotest.test_case "serve --stats golden" `Quick
            test_serve_stats_golden;
          Alcotest.test_case "serve determinism" `Quick test_serve_determinism;
          Alcotest.test_case "serve checkpoint resumes" `Quick
            test_serve_checkpoint_resumes;
          Alcotest.test_case "fault kill and resume" `Quick
            test_fault_kill_and_resume;
          Alcotest.test_case "fault recovery note" `Quick
            test_fault_recovery_note;
          Alcotest.test_case "serve WAL crash recovery" `Quick
            test_serve_wal_crash_recovery;
          Alcotest.test_case "serve --recover requires --wal" `Quick
            test_serve_recover_requires_wal;
          Alcotest.test_case "serve strict-log modes" `Quick
            test_serve_strict_log;
          Alcotest.test_case "serve quarantines poison mutations" `Quick
            test_serve_quarantine;
          Alcotest.test_case "serve counts rejected log lines" `Quick
            test_serve_rejected_lines_counter;
          Alcotest.test_case "server answers requests" `Quick
            test_server_answers;
          Alcotest.test_case "server clean exit" `Quick test_server_clean_exit;
          Alcotest.test_case "server quarantines poison queries" `Quick
            test_server_quarantine;
          Alcotest.test_case "server exit codes" `Quick test_server_exit_codes;
          Alcotest.test_case "server drains on SIGTERM" `Quick
            test_server_sigterm_drain;
          Alcotest.test_case "server drains at workers 2 and 4" `Quick
            test_server_sigterm_drain_workers;
          Alcotest.test_case "fault recovery without --retries" `Quick
            test_fault_default_retries;
          Alcotest.test_case "eval over a foreign predicate" `Quick
            test_eval_foreign_predicate;
          Alcotest.test_case "failed chase names its fault" `Quick
            test_fault_failure_names_fault;
        ] );
    ]
