(* Crash-safety suite for lib/resil and the chase's checkpoint/resume
   machinery: checkpoint JSON round-trips byte-identically, a resumed run
   is equivalent to an uninterrupted one (up to renaming of nulls invented
   after the boundary) under both policies, checkpoints written by
   since-removed engines still load and resume, and the supervisor turns
   injected faults into retries from the last checkpoint instead of
   escaped exceptions. Generators live in Generators.

   Equivalence caveat: a [Partial Facts] cut lands mid-pass, where the set
   of triggers fired before the cut depends on enumeration order (itself
   dependent on index insertion order), so for those runs only the levels
   before the final, truncated pass are compared; runs ending at a clean
   boundary (saturation or a level cut) must agree in full. *)

open Relational
module Chase = Tgds.Chase

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let v = Generators.v
let atom = Generators.atom
let fact = Generators.fact
let tgd = Generators.tgd

(* Result comparison up to null renaming lives in Generators (shared
   with the store and engine suites). *)
let results_equivalent = Generators.results_equivalent

(* ------------------------------------------------------------------ *)
(* Checkpoint serialisation                                             *)
(* ------------------------------------------------------------------ *)

let prop_checkpoint_roundtrip =
  QCheck.Test.make ~name:"checkpoint JSON round-trip is byte-identical"
    ~count:150 Generators.arb_checkpoint (fun s ->
      let str = Obs.Json.to_string (Resil.Checkpoint.to_json s) in
      match Obs.Json.parse str with
      | Error _ -> false
      | Ok j -> (
          match Resil.Checkpoint.of_json j with
          | Error _ -> false
          | Ok s' -> Obs.Json.to_string (Resil.Checkpoint.to_json s') = str))

let test_checkpoint_disk_roundtrip () =
  let snaps =
    Generators.chase_snapshots ~policy:Chase.Oblivious
      [ tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
        tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "A" [ v "y" ] ] ]
      (Instance.of_facts [ fact "A" [ "a" ] ])
  in
  let s = List.nth snaps (List.length snaps / 2) in
  let path = Filename.temp_file "resil_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Resil.Checkpoint.save path s;
      let read () =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let first = read () in
      (match Resil.Checkpoint.load path with
      | Error e ->
          Alcotest.failf "load failed: %s" (Resil.Checkpoint.error_message e)
      | Ok s' -> Resil.Checkpoint.save path s');
      check "save → load → save is byte-identical" true (read () = first))

let test_checkpoint_rejects_bad_schema () =
  let reject s =
    match Result.bind (Obs.Json.parse s) Resil.Checkpoint.of_json with
    | Error _ -> true
    | Ok _ -> false
  in
  check "wrong schema" true
    (reject {|{"schema":"other","version":1}|});
  check "wrong version" true
    (reject {|{"schema":"guarded-chase-checkpoint","version":99}|});
  check "missing fields" true
    (reject {|{"schema":"guarded-chase-checkpoint","version":1}|})

(* ------------------------------------------------------------------ *)
(* Resume ≍ uninterrupted                                               *)
(* ------------------------------------------------------------------ *)

let gen_resume_case =
  QCheck.Gen.(
    let* sigma = Generators.gen_sigma
    and* db = Generators.gen_db
    and* policy = Generators.gen_policy
    and* pick = int_range 0 1000 in
    return (sigma, db, policy, pick))

let print_resume_case (sigma, db, policy, pick) =
  Fmt.str "%s policy=%s pick=%d"
    (Generators.print_sigma_db (sigma, db))
    (match policy with
    | Chase.Oblivious -> "oblivious"
    | Chase.Restricted -> "restricted")
    pick

let arb_resume_case = QCheck.make ~print:print_resume_case gen_resume_case

let resume_equiv (sigma, db, policy, pick) =
  Term.reset_nulls ();
  let snaps = ref [] in
  let full =
    Chase.run ~policy ~budget:(Generators.resil_budget ())
      ~on_pass:(fun ~level:_ ~saturated:_ take -> snaps := take () :: !snaps)
      sigma db
  in
  let snaps = Array.of_list (List.rev !snaps) in
  let s = snaps.(pick mod Array.length snaps) in
  let r = Chase.resume ~budget:(Generators.resil_budget ()) sigma s in
  results_equivalent full r

let prop_resume_equiv =
  QCheck.Test.make
    ~name:"resume from any boundary ≍ uninterrupted (both policies)"
    ~count:200 arb_resume_case resume_equiv

(* ------------------------------------------------------------------ *)
(* Supervisor                                                           *)
(* ------------------------------------------------------------------ *)

(* A clock advancing one second per reading, so [After_ms] triggers fire
   deterministically within a few probe hits. *)
let ticking_clock () =
  let t = ref 0. in
  fun () ->
    t := !t +. 1.;
    !t

let gen_supervised_case =
  QCheck.Gen.(
    let* sigma = Generators.gen_sigma
    and* db = Generators.gen_db
    and* policy = Generators.gen_policy
    and* plan = Generators.gen_fault_plan in
    return (sigma, db, policy, plan))

let print_supervised_case (sigma, db, policy, plan) =
  Fmt.str "%s policy=%s plan=%s"
    (Generators.print_sigma_db (sigma, db))
    (match policy with
    | Chase.Oblivious -> "oblivious"
    | Chase.Restricted -> "restricted")
    (Resil.Fault.to_string plan)

let arb_supervised_case =
  QCheck.make ~print:print_supervised_case gen_supervised_case

(* With retries 3 the supervisor grants 4 attempts and the generated
   plans have ≤ 3 triggers, so some attempt always runs fault-free: the
   outcome must carry a result equivalent to the uninterrupted run. *)
let supervised_equiv (sigma, db, policy, plan) =
  Term.reset_nulls ();
  let base =
    Chase.run ~policy ~budget:(Generators.resil_budget ())
      sigma db
  in
  Term.reset_nulls ();
  match
    Resil.Supervisor.run ~policy
      ~budget:(Generators.resil_budget ()) ~retries:3
      ~sleep:(fun _ -> ())
      ~clock:(ticking_clock ()) ~fault_plan:plan sigma (Instance.facts db)
  with
  | Resil.Supervisor.Completed r | Resil.Supervisor.Recovered (r, _) ->
      results_equivalent base r
  | Resil.Supervisor.Failed _ -> false

let prop_supervised_equiv =
  QCheck.Test.make
    ~name:"supervised run with kills ≍ uninterrupted (both policies)"
    ~count:200 arb_supervised_case supervised_equiv

(* Σ = {A(x) → ∃y S(x,y); S(x,y) → A(y)}: non-terminating, cut by the
   level budget — a deterministic workload for the unit tests below. *)
let unit_sigma =
  [
    tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
    tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "A" [ v "y" ] ];
  ]

let unit_db = Instance.of_facts [ fact "A" [ "a" ] ]

(* Checkpoints of [a(c). a(X) -> s(X,Y). s(X,Y) -> a(Y).] at level 3,
   byte for byte as since-removed engines wrote them: the multicore one
   ([chase --engine parallel --domains 2 --max-level 3 --checkpoint]) and
   the naive one ([chase --engine naive --max-level 3 --checkpoint]). *)
let legacy_parallel_checkpoint =
  {|{"schema":"guarded-chase-checkpoint","version":1,"engine":"parallel","policy":"oblivious","level":3,"saturated":false,"null_count":2,"triggers_fired":3,"triggers_dismissed":0,"counters":{"index.duplicates":0,"index.inserts":4,"index.probes":0,"index.removes":0,"joiner.backtracks":0,"joiner.candidates":3},"facts":[{"p":"a","l":0,"a":["c"]},{"p":"s","l":1,"a":["c",{"n":1}]},{"p":"a","l":2,"a":[{"n":1}]},{"p":"s","l":3,"a":[{"n":1},{"n":2}]}]}|}

let legacy_naive_checkpoint =
  {|{"schema":"guarded-chase-checkpoint","version":1,"engine":"naive","policy":"oblivious","level":3,"saturated":false,"null_count":2,"triggers_fired":3,"triggers_dismissed":0,"counters":{},"facts":[{"p":"a","l":0,"a":["c"]},{"p":"s","l":1,"a":["c",{"n":1}]},{"p":"a","l":2,"a":[{"n":1}]},{"p":"s","l":3,"a":[{"n":1},{"n":2}]}]}|}

(* The legacy checkpoint resumes to the uninterrupted run's result, null
   ids included. *)
let test_legacy_checkpoint literal () =
  let sigma =
    [
      tgd [ atom "a" [ v "x" ] ] [ atom "s" [ v "x"; v "y" ] ];
      tgd [ atom "s" [ v "x"; v "y" ] ] [ atom "a" [ v "y" ] ];
    ]
  in
  Term.reset_nulls ();
  let full =
    Chase.run ~budget:(Generators.resil_budget ()) sigma
      (Instance.of_facts [ fact "a" [ "c" ] ])
  in
  match Result.bind (Obs.Json.parse literal) Resil.Checkpoint.of_json with
  | Error e -> Alcotest.failf "legacy checkpoint unreadable: %s" e
  | Ok s ->
      let r = Chase.resume ~budget:(Generators.resil_budget ()) sigma s in
      check "resumes to the uninterrupted result, null ids included" true
        (Generators.facts_levels r = Generators.facts_levels full
        && Chase.saturated r = Chase.saturated full
        && Chase.max_level r = Chase.max_level full)

let test_supervisor_failed_is_typed () =
  (* no retries: the one attempt dies at its first pass *)
  let plan = [ Resil.Fault.At_point ("engine.pass", 1) ] in
  match
    Resil.Supervisor.run
      ~budget:(Generators.resil_budget ()) ~retries:0
      ~sleep:(fun _ -> ())
      ~fault_plan:plan unit_sigma (Instance.facts unit_db)
  with
  | Resil.Supervisor.Failed d ->
      check_int "the attempt is logged" 1 (List.length d.Resil.Supervisor.attempts)
  | _ -> Alcotest.fail "expected Failed (and no escaped exception)"

let test_supervisor_backoff_sequence () =
  let sleeps = ref [] in
  let plan =
    [
      Resil.Fault.At_point ("engine.pass", 1);
      Resil.Fault.At_point ("engine.pass", 2);
      Resil.Fault.At_point ("engine.pass", 3);
    ]
  in
  (match
     Resil.Supervisor.run
       ~budget:(Generators.resil_budget ()) ~retries:3 ~backoff_ms:100.
       ~max_backoff_ms:250.
       ~sleep:(fun s -> sleeps := s :: !sleeps)
       ~fault_plan:plan unit_sigma (Instance.facts unit_db)
   with
  | Resil.Supervisor.Recovered (_, log) ->
      check_int "three failed attempts" 3 (List.length log)
  | _ -> Alcotest.fail "expected Recovered");
  let expect = [ 100. /. 1000.; 200. /. 1000.; 250. /. 1000. ] in
  check_int "three sleeps" (List.length expect) (List.length !sleeps);
  List.iter2
    (fun a b -> check "capped exponential backoff" true (Float.abs (a -. b) < 1e-9))
    expect (List.rev !sleeps)

let test_supervisor_checkpoints_to_disk () =
  let path = Filename.temp_file "resil_sup" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Term.reset_nulls ();
      (match
         Resil.Supervisor.run
           ~budget:(Generators.resil_budget ()) ~retries:1 ~checkpoint_path:path
           ~sleep:(fun s -> ignore s)
           ~fault_plan:[ Resil.Fault.At_point ("engine.pass", 3) ]
           unit_sigma (Instance.facts unit_db)
       with
      | Resil.Supervisor.Recovered (_, log) ->
          check_int "one failed attempt" 1 (List.length log);
          (* only failed attempts are logged; the first ran from scratch *)
          check "first attempt started from scratch" true
            ((List.hd log).Resil.Supervisor.resumed_from = None)
      | _ -> Alcotest.fail "expected Recovered");
      match Resil.Checkpoint.load path with
      | Error e ->
          Alcotest.failf "final checkpoint unreadable: %s"
            (Resil.Checkpoint.error_message e)
      | Ok s ->
          check "final checkpoint is at the run's last boundary" true
            (s.Engine.Saturate.snap_level > 0))

(* The attempt logs of four plans at [~retries:3], pinned: trigger [k]
   kills attempt [k], and a fault's hit count runs from the moment its
   trigger went live, which is where its attempt started. *)
let test_supervisor_logs_pinned () =
  let log spec ?clock () =
    Term.reset_nulls ();
    let fault_plan = Result.get_ok (Resil.Fault.parse spec) in
    match
      Resil.Supervisor.run
        ~budget:(Generators.resil_budget ()) ~retries:3
        ~sleep:(fun _ -> ())
        ?clock ~fault_plan unit_sigma (Instance.facts unit_db)
    with
    | Resil.Supervisor.Completed _ -> []
    | Resil.Supervisor.Recovered (_, log) ->
        List.map
          (fun (a : Resil.Supervisor.attempt) ->
            (a.attempt, a.fault, a.resumed_from, a.backoff_ms))
          log
    | Resil.Supervisor.Failed _ -> Alcotest.failf "%s: expected a result" spec
  in
  let expect spec ?clock want =
    check spec true (log spec ?clock () = want)
  in
  expect "hit:20" [ (1, "injected fault at engine.pass (hit 20)", None, 50.) ];
  expect "point:engine.pass:2,point:engine.join:3"
    [
      (1, "injected fault at engine.pass (hit 5)", None, 50.);
      (2, "injected fault at engine.join (hit 10)", Some 1, 100.);
    ];
  expect "ms:500" ~clock:(ticking_clock ())
    [ (1, "injected fault at engine.insert (hit 1)", None, 50.) ];
  expect "seed:7" []

(* An always-fire trigger stays live for the whole run: it fails every
   attempt that reaches its point, as it does under serve and server. *)
let test_supervisor_every_point () =
  match
    Resil.Supervisor.run
      ~budget:(Generators.resil_budget ()) ~retries:2
      ~sleep:(fun _ -> ())
      ~fault_plan:[ Resil.Fault.Every_point "engine.pass" ]
      unit_sigma (Instance.facts unit_db)
  with
  | Resil.Supervisor.Failed d ->
      check "every attempt fails at the first pass" true
        (List.map
           (fun (a : Resil.Supervisor.attempt) -> (a.attempt, a.fault))
           d.Resil.Supervisor.attempts
        = List.init 3 (fun i ->
              (i + 1, "injected fault at engine.pass (hit 1)")));
      check "disarmed on exit" false (Obs.Probe.armed ())
  | _ -> Alcotest.fail "expected Failed"

(* A violated precondition inside an attempt escapes as [Fatal] at once,
   without burning a retry, and leaves nothing armed. The clock is read
   once when the plan is armed and raises on its first read inside the
   chase. *)
let test_supervisor_fatal_escapes () =
  let reads = ref 0 in
  let clock () =
    incr reads;
    if !reads > 1 then invalid_arg "clock" else 0.
  in
  (match
     Resil.Supervisor.run
       ~budget:(Generators.resil_budget ()) ~retries:3
       ~sleep:(fun _ -> Alcotest.fail "slept before a retry")
       ~clock ~fault_plan:[ Resil.Fault.After_ms 1e9 ]
       unit_sigma (Instance.facts unit_db)
   with
  | _ -> Alcotest.fail "expected Fatal"
  | exception Resil.Fault.Fatal msg ->
      check "names the precondition" true
        (msg = "precondition violated: clock"));
  check "disarmed on exit" false (Obs.Probe.armed ())

(* A supervisor with nothing to retry and no checkpoint file takes no
   snapshot, so it allocates what the chase it wraps allocates. *)
let test_supervisor_bare_words () =
  let sigma, db = Guarded_core.Workload.lubm ~universities:40 () in
  let facts = Instance.facts db in
  let words f =
    Term.reset_nulls ();
    Gc.minor ();
    let s0 = Gc.quick_stat () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor ();
    let s1 = Gc.quick_stat () in
    s1.Gc.minor_words -. s0.Gc.minor_words
  in
  let chase =
    words (fun () -> Chase.run_store sigma (Engine.Index.of_facts facts))
  in
  let supervised =
    words (fun () -> Resil.Supervisor.run ~retries:0 sigma facts)
  in
  let ratio = supervised /. chase in
  if ratio > 1.05 then
    Alcotest.failf "supervised chase allocates %.0f minor words, %.3fx %.0f"
      supervised ratio chase

(* The shared retry loop: capped backoff between failures, at most
   [attempts] calls, and the failures an eventual success carries. *)
let test_fault_retry () =
  let sleeps = ref [] and calls = ref 0 in
  let run ~attempts ~ok_at =
    sleeps := [];
    calls := 0;
    Resil.Fault.retry ~attempts ~base_ms:100. ~max_ms:250.
      ~sleep:(fun s -> sleeps := s :: !sleeps)
      (fun k ->
        incr calls;
        if k = ok_at then Ok k else Error (Fmt.str "f%d" k))
  in
  check "ok after three failures" true
    (run ~attempts:5 ~ok_at:4
    = Ok (4, [ (1, "f1", 100.); (2, "f2", 200.); (3, "f3", 250.) ]));
  check "capped sleeps, in seconds" true
    (List.rev !sleeps = [ 0.1; 0.2; 0.25 ]);
  check "first-call success carries no failure" true
    (run ~attempts:3 ~ok_at:1 = Ok (1, []));
  check_int "one call" 1 !calls;
  check "exhausted: the last failure slept nothing" true
    (run ~attempts:3 ~ok_at:9
    = Error [ (1, "f1", 100.); (2, "f2", 200.); (3, "f3", 0.) ]);
  check_int "at most [attempts] calls" 3 !calls;
  check_int "no sleep after the last call" 2 (List.length !sleeps);
  check "zero attempts still call once" true
    (run ~attempts:0 ~ok_at:9 = Error [ (1, "f1", 0.) ])

(* ------------------------------------------------------------------ *)
(* Fault plans                                                          *)
(* ------------------------------------------------------------------ *)

let arb_fault_plan =
  QCheck.make
    ~print:(fun p -> Resil.Fault.to_string p)
    Generators.gen_fault_plan

let prop_fault_plan_roundtrip =
  QCheck.Test.make ~name:"fault plan parse ∘ to_string = id" ~count:200
    arb_fault_plan (fun plan ->
      Resil.Fault.parse (Resil.Fault.to_string plan) = Ok plan)

let test_fault_parse () =
  check "none" true (Resil.Fault.parse "none" = Ok []);
  check "empty" true (Resil.Fault.parse "" = Ok []);
  check "hit" true (Resil.Fault.parse "hit:7" = Ok [ Resil.Fault.At_hit 7 ]);
  check "list" true
    (Resil.Fault.parse "hit:1,point:engine.pass:2,ms:5"
    = Ok
        [
          Resil.Fault.At_hit 1;
          Resil.Fault.At_point ("engine.pass", 2);
          Resil.Fault.After_ms 5.;
        ]);
  check "always-fire point" true
    (Resil.Fault.parse "point:engine.answer:*"
    = Ok [ Resil.Fault.Every_point "engine.answer" ]);
  check "always-fire roundtrips" true
    (Resil.Fault.parse
       (Resil.Fault.to_string [ Resil.Fault.Every_point "engine.answer" ])
    = Ok [ Resil.Fault.Every_point "engine.answer" ]);
  check "always-fire plans are stateless" true
    (Resil.Fault.stateless [ Resil.Fault.Every_point "p" ]);
  check "counted plans are not stateless" false
    (Resil.Fault.stateless
       [ Resil.Fault.Every_point "p"; Resil.Fault.At_hit 1 ]);
  check "the empty plan is not stateless" false (Resil.Fault.stateless []);
  check "seed is deterministic" true
    (Resil.Fault.parse "seed:42:4" = Resil.Fault.parse "seed:42:4");
  (match Resil.Fault.parse "seed:42:4" with
  | Ok plan -> check_int "seed expands to the requested attempts" 4 (List.length plan)
  | Error _ -> Alcotest.fail "seed spec rejected");
  List.iter
    (fun bad ->
      check (Fmt.str "rejects %S" bad) true
        (Result.is_error (Resil.Fault.parse bad)))
    [ "bogus"; "hit:x"; "hit:0"; "point:engine.pass"; "ms:nope"; "seed:x" ]

let test_fault_arm_determinism () =
  let count_hits trig =
    Term.reset_nulls ();
    Resil.Fault.arm_seq [ trig ];
    Fun.protect ~finally:Resil.Fault.disarm (fun () ->
        match
          Chase.run ~budget:(Generators.resil_budget ()) unit_sigma unit_db
        with
        | _ -> None
        | exception Resil.Fault.Injected (point, hit) -> Some (point, hit))
  in
  let a = count_hits (Resil.Fault.At_hit 20) in
  let b = count_hits (Resil.Fault.At_hit 20) in
  check "same trigger, same failure point" true (a = b && a <> None);
  check "probes disarmed afterwards" true (not (Obs.Probe.armed ()))

(* ------------------------------------------------------------------ *)
(* Typed checkpoint errors                                              *)
(* ------------------------------------------------------------------ *)

let contains_sub hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* [with_field name value j] — the parsed object [j] with member [name]
   replaced by [value]. *)
let with_field name value = function
  | Ok (Obs.Json.Obj kvs) ->
      Obs.Json.Obj
        (List.map (fun (k, v) -> if k = name then (k, value) else (k, v)) kvs)
  | _ -> Alcotest.fail "literal is not a JSON object"

let test_checkpoint_typed_errors () =
  (match Resil.Checkpoint.load "/no/such/checkpoint.json" with
  | Error (Resil.Checkpoint.Io msg) ->
      check "Io message is one line" true (not (String.contains msg '\n'))
  | Error (Resil.Checkpoint.Corrupt _) ->
      Alcotest.fail "a missing file is Io, not Corrupt"
  | Ok _ -> Alcotest.fail "load of a missing file succeeded");
  let path = Filename.temp_file "resil_bad_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"schema\": \"guarded-chase-checkpoint\", \"ver";
      close_out oc;
      match Resil.Checkpoint.load path with
      | Error (Resil.Checkpoint.Corrupt msg) ->
          check "Corrupt names the file" true
            (contains_sub msg (Filename.basename path));
          check "Corrupt message is one line" true
            (not (String.contains msg '\n'))
      | Error (Resil.Checkpoint.Io _) ->
          Alcotest.fail "unparseable JSON is Corrupt, not Io"
      | Ok _ -> Alcotest.fail "load of truncated JSON succeeded");
  (* readable, well-formed JSON with the wrong schema: the Io/Corrupt
     split keys on what the bytes mean, not on whether they parse *)
  let path = Filename.temp_file "resil_alien_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"schema\": \"some-other-artifact\", \"version\": 1}";
      close_out oc;
      match Resil.Checkpoint.load path with
      | Error (Resil.Checkpoint.Corrupt _) -> ()
      | Error (Resil.Checkpoint.Io _) ->
          Alcotest.fail "an alien schema is Corrupt, not Io"
      | Ok _ -> Alcotest.fail "load of an alien schema succeeded");
  (* an engine name no version ever wrote *)
  let path = Filename.temp_file "resil_engine_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Obs.Json.to_channel oc
        (with_field "engine" (Obs.Json.String "quantum")
           (Obs.Json.parse legacy_naive_checkpoint));
      close_out oc;
      match Resil.Checkpoint.load path with
      | Error (Resil.Checkpoint.Corrupt msg) ->
          check "Corrupt names the engine" true (contains_sub msg "quantum")
      | Error (Resil.Checkpoint.Io _) ->
          Alcotest.fail "an unknown engine is Corrupt, not Io"
      | Ok _ -> Alcotest.fail "load of an unknown engine succeeded")

(* Σ = {a(x) → ∃y s(x,y), s(x,y) → ∃z t(y,z)} with s(c,n1) stored but a
   null counter of 0: resuming would invent n1 again, for t(n1,n1). *)
let low_null_checkpoint =
  {|{"schema":"guarded-chase-checkpoint","version":1,"engine":"indexed","policy":"oblivious","level":1,"saturated":false,"null_count":0,"triggers_fired":1,"triggers_dismissed":0,"counters":{},"facts":[{"p":"a","l":0,"a":["c"]},{"p":"s","l":1,"a":["c",{"n":1}]}]}|}

let test_checkpoint_rejects_low_null_count () =
  let path = Filename.temp_file "resil_low_null_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc low_null_checkpoint;
      close_out oc;
      match Resil.Checkpoint.load path with
      | Error (Resil.Checkpoint.Corrupt msg) ->
          check "diagnostic names null_count" true
            (contains_sub msg "null_count");
          check "diagnostic names the file" true
            (contains_sub msg (Filename.basename path))
      | Error (Resil.Checkpoint.Io _) ->
          Alcotest.fail "a low null_count is Corrupt, not Io"
      | Ok _ -> Alcotest.fail "a checkpoint with a low null_count loaded")

(* An s-level the store cannot hold (negative, or past
   [Index.max_level]) is a typed [Corrupt] at load, not an exception at
   resume. *)
let test_checkpoint_rejects_bad_level () =
  List.iter
    (fun l ->
      let path = Filename.temp_file "resil_bad_level_ck" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out_bin path in
          output_string oc
            (Printf.sprintf
               {|{"schema":"guarded-chase-checkpoint","version":1,"engine":"indexed","policy":"oblivious","level":1,"saturated":false,"null_count":0,"triggers_fired":0,"triggers_dismissed":0,"counters":{},"facts":[{"p":"a","l":%d,"a":["c"]}]}|}
               l);
          close_out oc;
          match Resil.Checkpoint.load path with
          | Error (Resil.Checkpoint.Corrupt msg) ->
              check "diagnostic names the s-level" true (contains_sub msg "s-level")
          | Error (Resil.Checkpoint.Io _) ->
              Alcotest.fail "a bad s-level is Corrupt, not Io"
          | Ok _ -> Alcotest.fail "a checkpoint with a bad s-level loaded"))
    [ -1; Engine.Index.max_level + 1 ]

(* ------------------------------------------------------------------ *)
(* CRC32 and the WAL                                                    *)
(* ------------------------------------------------------------------ *)

let test_crc32 () =
  (* the standard CRC-32 check value *)
  check_int "check value" 0xCBF43926 (Resil.Crc32.string "123456789");
  check_int "empty string" 0 (Resil.Crc32.string "");
  let c = Resil.Crc32.string "a WAL record payload" in
  check "hex round-trip" true (Resil.Crc32.of_hex (Resil.Crc32.to_hex c) = Some c);
  check "rejects short hex" true (Resil.Crc32.of_hex "abc" = None);
  check "rejects non-hex" true (Resil.Crc32.of_hex "zzzzzzzz" = None)

(* Σ terminates: A(x) → B(x); B(x) → ∃y S(x,y). Inserts/deletes of A
   facts cascade through both rules, inventing one null per chain. *)
let serve_sigma =
  [
    tgd [ atom "A" [ v "x" ] ] [ atom "B" [ v "x" ] ];
    tgd [ atom "B" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
  ]

let serve_db = Instance.of_facts [ fact "A" [ "a" ]; fact "A" [ "b" ] ]

let with_tmpdir f =
  let dir = Filename.temp_file "resil_wal" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let test_wal_roundtrip () =
  Term.reset_nulls ();
  let store = Incr.create serve_sigma serve_db in
  with_tmpdir (fun dir ->
      let w = Resil.Wal.create ~dir (Incr.image store) in
      let ops =
        [
          Incr.Insert (fact "A" [ "c" ]);
          Incr.Delete (fact "A" [ "a" ]);
          Incr.Insert (fact "A" [ "d" ]);
        ]
      in
      List.iteri
        (fun i op ->
          Resil.Wal.append w (Resil.Wal.Op (i + 1, op));
          ignore (Incr.apply store op))
        ops;
      Resil.Wal.close w;
      match Resil.Wal.recover ~dir with
      | Error e -> Alcotest.fail e
      | Ok r ->
          check_int "image at seq 0" 0 r.Resil.Wal.rec_image_seq;
          check_int "three tail records" 3 (List.length r.Resil.Wal.rec_ops);
          check_int "last seq" 3 r.Resil.Wal.rec_last_seq;
          check_int "nothing truncated" 0 r.Resil.Wal.rec_truncated;
          (* image + tail replay reproduces the store exactly — same
             facts, same null ids *)
          let rebuilt = Incr.of_image serve_sigma r.Resil.Wal.rec_image in
          List.iter
            (fun (_, op) -> ignore (Incr.apply rebuilt op))
            r.Resil.Wal.rec_ops;
          check "replayed store is identical" true
            (Instance.equal (Incr.instance rebuilt) (Incr.instance store)))

let test_wal_rotation_prunes () =
  Term.reset_nulls ();
  let store = Incr.create serve_sigma serve_db in
  with_tmpdir (fun dir ->
      let w = Resil.Wal.create ~dir (Incr.image store) in
      let op1 = Incr.Insert (fact "A" [ "c" ]) in
      Resil.Wal.append w (Resil.Wal.Op (1, op1));
      ignore (Incr.apply store op1);
      Resil.Wal.rotate w ~seq:1 (Incr.image store);
      let op2 = Incr.Delete (fact "A" [ "b" ]) in
      Resil.Wal.append w (Resil.Wal.Op (2, op2));
      ignore (Incr.apply store op2);
      Resil.Wal.close w;
      check "old image pruned" false
        (Sys.file_exists (Filename.concat dir "image-0.json"));
      check "old segment pruned" false
        (Sys.file_exists (Filename.concat dir "wal-0.log"));
      match Resil.Wal.recover ~dir with
      | Error e -> Alcotest.fail e
      | Ok r ->
          check_int "recovers from the rotated image" 1
            r.Resil.Wal.rec_image_seq;
          check_int "one tail record" 1 (List.length r.Resil.Wal.rec_ops);
          let rebuilt = Incr.of_image serve_sigma r.Resil.Wal.rec_image in
          List.iter
            (fun (_, op) -> ignore (Incr.apply rebuilt op))
            r.Resil.Wal.rec_ops;
          check "replay from rotated image is identical" true
            (Instance.equal (Incr.instance rebuilt) (Incr.instance store)))

let append_raw dir seg bytes =
  let path = Filename.concat dir (Printf.sprintf "wal-%d.log" seg) in
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc bytes;
  close_out oc;
  path

let test_wal_truncates_torn_tail () =
  Term.reset_nulls ();
  let store = Incr.create serve_sigma serve_db in
  with_tmpdir (fun dir ->
      let w = Resil.Wal.create ~dir (Incr.image store) in
      Resil.Wal.append w (Resil.Wal.Op (1, Incr.Insert (fact "A" [ "c" ])));
      Resil.Wal.close w;
      (* a crash mid-append: record body without its newline *)
      let path = append_raw dir 0 "deadbeef {\"s\":2,\"k\":\"+\"" in
      (match Resil.Wal.recover ~dir with
      | Error e -> Alcotest.failf "torn tail should recover: %s" e
      | Ok r ->
          check_int "torn record truncated" 1 r.Resil.Wal.rec_truncated;
          check_int "surviving record kept" 1 (List.length r.Resil.Wal.rec_ops);
          check_int "last seq ignores the torn record" 1
            r.Resil.Wal.rec_last_seq);
      (* the torn bytes are physically gone: recovery is idempotent *)
      (match Resil.Wal.recover ~dir with
      | Error e -> Alcotest.fail e
      | Ok r -> check_int "second recovery sees a clean tail" 0
            r.Resil.Wal.rec_truncated);
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      close_in ic;
      let reopened = Resil.Wal.reopen ~dir in
      Resil.Wal.append reopened
        (Resil.Wal.Op (2, Incr.Insert (fact "A" [ "d" ])));
      Resil.Wal.close reopened;
      let ic = open_in_bin path in
      let len' = in_channel_length ic in
      close_in ic;
      check "appends resume on the clean boundary" true (len' > len);
      match Resil.Wal.recover ~dir with
      | Error e -> Alcotest.fail e
      | Ok r -> check_int "both records readable" 2 (List.length r.Resil.Wal.rec_ops))

let test_wal_rejects_interior_corruption () =
  Term.reset_nulls ();
  let store = Incr.create serve_sigma serve_db in
  with_tmpdir (fun dir ->
      let w = Resil.Wal.create ~dir (Incr.image store) in
      Resil.Wal.append w (Resil.Wal.Op (1, Incr.Insert (fact "A" [ "c" ])));
      Resil.Wal.close w;
      (* a corrupt line with a valid record after it is not a torn tail *)
      ignore (append_raw dir 0 "00000000 {\"garbage\":true}\n");
      let payload = "{\"s\":2,\"k\":\"-\",\"p\":\"A\",\"a\":[\"c\"]}" in
      ignore
        (append_raw dir 0
           (Resil.Crc32.to_hex (Resil.Crc32.string payload) ^ " " ^ payload
          ^ "\n"));
      match Resil.Wal.recover ~dir with
      | Error msg ->
          check "diagnostic names the record" true
            (contains_sub msg "corrupt record")
      | Ok _ -> Alcotest.fail "interior corruption must not recover")

let test_wal_image_codec_roundtrip () =
  Term.reset_nulls ();
  let store = Incr.create serve_sigma serve_db in
  ignore (Incr.apply store (Incr.Delete (fact "A" [ "a" ])));
  let im = Incr.image store in
  let j = Resil.Wal.image_to_json ~seq:7 im in
  let str = Obs.Json.to_string j in
  match Result.bind (Obs.Json.parse str) Resil.Wal.image_of_json with
  | Error e -> Alcotest.fail e
  | Ok (seq, im') ->
      check_int "seq preserved" 7 seq;
      check "image round-trips" true (im' = im);
      check "serialisation is stable" true
        (Obs.Json.to_string (Resil.Wal.image_to_json ~seq:7 im') = str)

(* [image_to_json ~seq:1] of the [serve_sigma] store after deleting A(a),
   recorded when image v2 was the current format. It pins the bytes: a
   codec change that moves one of them fails here. *)
let pinned_v2_image =
  {|{"schema":"guarded-serve-image","version":2,"seq":1,"level":2,"null_count":2,"counters":{"incr.deleted":3,"incr.deletes":1,"incr.inserts":0,"incr.noops":0,"incr.overdeleted":3,"incr.rederived":0,"incr.repaired":0,"index.duplicates":0,"index.inserts":6,"index.probes":0,"index.removes":3,"joiner.backtracks":0,"joiner.candidates":4},"base":[{"p":"A","a":["b"]}],"syms":["a","b",{"n":1},{"n":2}],"preds":["A","B","S"],"facts":[{"p":"A","l":0,"a":["b"]},{"p":"B","l":1,"a":["b"]},{"p":"S","l":2,"a":["b",{"n":1}]}],"ledger":[{"r":0,"k":["b"],"b":[{"p":"A","a":["b"]}],"o":[{"p":"B","a":["b"]}]},{"r":1,"k":["b"],"b":[{"p":"B","a":["b"]}],"o":[{"p":"S","a":["b",{"n":1}]}]}]}|}

let test_wal_pinned_v2_image () =
  match Result.bind (Obs.Json.parse pinned_v2_image) Resil.Wal.image_of_json with
  | Error e -> Alcotest.failf "pinned v2 image does not decode: %s" e
  | Ok (seq, im) ->
      check_int "seq" 1 seq;
      let rebuilt = Incr.of_image serve_sigma im in
      Alcotest.(check string)
        "of_image → image → image_to_json is byte-identical" pinned_v2_image
        (Obs.Json.to_string
           (Resil.Wal.image_to_json ~seq:1 (Incr.image rebuilt)))

(* The image of a real store: lubm-10 after a fixed 20-mutation log of
   deletes (cascading through nulls, or of facts that stay derivable),
   fresh inserts and re-inserts. The digest of its serialisation was
   recorded before the ledger was interned; it pins every byte, ledger
   order and shared facts included, on a store with thousands of
   derivations. *)
let lubm_mutations =
  let s u d k = Printf.sprintf "student_%d_%d_%d" u d k in
  Incr.
    [
      Delete (fact "Student" [ s 0 0 1 ]);
      Insert (fact "Student" [ "new_0" ]);
      Delete (fact "Dept" [ "dept_0_0" ]);
      Delete (fact "MemberOf" [ "prof_1_1_0"; "dept_1_1" ]);
      Insert (fact "Takes" [ "new_0"; "course_0_0_0" ]);
      Delete (fact "Takes" [ s 2 0 0; "course_2_0_0" ]);
      Insert (fact "Student" [ s 0 0 1 ]);
      Delete (fact "Prof" [ "prof_3_0_2" ]);
      Insert (fact "MemberOf" [ "new_0"; "dept_4_1" ]);
      Delete (fact "Student" [ s 5 1 4 ]);
      Insert (fact "Prof" [ "new_1" ]);
      Delete (fact "Student" [ "new_0" ]);
      Insert (fact "Dept" [ "dept_0_0" ]);
      Delete (fact "Teaches" [ "prof_6_0_1"; "course_6_0_1" ]);
      Insert (fact "Student" [ "new_2" ]);
      Delete (fact "MemberOf" [ s 7 1 2; "dept_7_1" ]);
      Insert (fact "Teaches" [ "new_1"; "course_new" ]);
      Delete (fact "Student" [ s 8 0 3 ]);
      Insert (fact "Student" [ s 5 1 4 ]);
      Delete (fact "Prof" [ "new_1" ]);
    ]

let check_lubm_image store =
  List.iter (fun op -> ignore (Incr.apply store op)) lubm_mutations;
  let im = Incr.image store in
  check_int "ledger entries" 1354 (List.length im.Incr.im_ledger);
  Alcotest.(check string)
    "image digest" "e152b2948521a79f7a1a6f7aca992383"
    (Digest.to_hex
       (Digest.string
          (Obs.Json.to_string (Resil.Wal.image_to_json ~seq:20 im))))

let test_wal_image_bytes_pinned_lubm () =
  let sigma, db = Guarded_core.Workload.lubm ~universities:10 () in
  Term.reset_nulls ();
  check_lubm_image (Incr.create sigma db)

(* The same store built through the load entry, as [serve] builds it:
   lubm-10's facts, reversed and with every tenth one repeated, are
   filed by [Index.of_facts] and chased by [Incr.of_store]. *)
let test_wal_image_bytes_pinned_lubm_loaded () =
  let sigma, db = Guarded_core.Workload.lubm ~universities:10 () in
  let facts = Instance.facts db in
  let facts = List.rev facts @ List.filteri (fun i _ -> i mod 10 = 0) facts in
  Term.reset_nulls ();
  check_lubm_image (Incr.of_store sigma (Engine.Index.of_facts facts))

(* syms hold the nulls 1 and 2; a null counter of 0 would re-issue them *)
let test_wal_image_rejects_low_null_count () =
  let j =
    with_field "null_count" (Obs.Json.Int 0) (Obs.Json.parse pinned_v2_image)
  in
  match Resil.Wal.image_of_json j with
  | Error msg ->
      check "diagnostic names null_count" true (contains_sub msg "null_count")
  | Ok _ -> Alcotest.fail "an image with null_count below its nulls decoded"

(* The pinned image with [field] replaced by the JSON [value], read back
   from disk: an image whose base or ledger names a fact or symbol the
   image does not hold is a typed [Corrupt] naming the rule it breaks.
   An interned rebuild would otherwise intern fresh ids for it. *)
let test_wal_image_rejects ~field ~value ~diagnostic () =
  let value =
    match Obs.Json.parse value with Ok j -> j | Error e -> Alcotest.fail e
  in
  let j = with_field field value (Obs.Json.parse pinned_v2_image) in
  let path = Filename.temp_file "resil_image" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Obs.Json.to_string j));
      match
        Resil.Checkpoint.decode_file ~tag:"wal" Resil.Wal.image_of_json path
      with
      | Error (Resil.Checkpoint.Corrupt msg) ->
          check ("diagnostic names " ^ diagnostic) true
            (contains_sub msg diagnostic)
      | Error (Resil.Checkpoint.Io _) -> Alcotest.fail "a readable image is not Io"
      | Ok _ -> Alcotest.failf "an image with a %s decoded" diagnostic)

(* A crash in the middle of a rotate: image-N is on disk, the segment
   wal-N is not, and image-N is corrupt. Recovery falls back to image-0
   and replays all of wal-0. *)
let test_wal_falls_back_past_corrupt_image () =
  Term.reset_nulls ();
  let store = Incr.create serve_sigma serve_db in
  with_tmpdir (fun dir ->
      let w = Resil.Wal.create ~dir (Incr.image store) in
      let ops =
        [ Incr.Insert (fact "A" [ "c" ]); Incr.Delete (fact "A" [ "a" ]) ]
      in
      List.iteri
        (fun i op ->
          Resil.Wal.append w (Resil.Wal.Op (i + 1, op));
          ignore (Incr.apply store op))
        ops;
      Resil.Wal.close w;
      let expected =
        Obs.Json.to_string (Resil.Wal.image_to_json ~seq:2 (Incr.image store))
      in
      let path = Filename.concat dir "image-2.json" in
      let oc = open_out_bin path in
      output_string oc (String.sub expected 0 (String.length expected / 2));
      close_out oc;
      match Resil.Wal.recover ~dir with
      | Error e -> Alcotest.failf "recovery should fall back: %s" e
      | Ok r ->
          check_int "image-0 picked" 0 r.Resil.Wal.rec_image_seq;
          check_int "one skipped image" 1 r.Resil.Wal.rec_skipped_images;
          check_int "all of wal-0 replayed" 2 (List.length r.Resil.Wal.rec_ops);
          let rebuilt = Incr.of_image serve_sigma r.Resil.Wal.rec_image in
          List.iter
            (fun (_, op) -> ignore (Incr.apply rebuilt op))
            r.Resil.Wal.rec_ops;
          Alcotest.(check string)
            "recovered store ≡ uninterrupted store" expected
            (Obs.Json.to_string
               (Resil.Wal.image_to_json ~seq:2 (Incr.image rebuilt))))

let test_wal_recover_unreadable_segment () =
  Term.reset_nulls ();
  let store = Incr.create serve_sigma serve_db in
  with_tmpdir (fun dir ->
      let w = Resil.Wal.create ~dir (Incr.image store) in
      Resil.Wal.close w;
      let seg = Filename.concat dir "wal-0.log" in
      Sys.remove seg;
      Sys.mkdir seg 0o755;
      match Resil.Wal.recover ~dir with
      | exception e ->
          Alcotest.failf "recover raised %s" (Printexc.to_string e)
      | Ok _ -> Alcotest.fail "a directory is not a readable segment"
      | Error msg ->
          check "wal: prefix" true (String.starts_with ~prefix:"wal: " msg);
          check "names the segment" true (contains_sub msg seg))

(* ------------------------------------------------------------------ *)
(* Sequential fault plans                                               *)
(* ------------------------------------------------------------------ *)

let fire name =
  try
    Obs.Probe.hit name;
    None
  with Resil.Fault.Injected (pt, _) -> Some pt

let test_fault_arm_seq () =
  Resil.Fault.arm_seq
    [ Resil.Fault.At_point ("p", 2); Resil.Fault.At_hit 1 ];
  check "first hit of p passes" true (fire "p" = None);
  check "other points do not advance At_point" true (fire "q" = None);
  check "second hit of p fires trigger 1" true (fire "p" = Some "p");
  (* trigger 2 is now live with fresh counters: the next hit anywhere
     fires *)
  check "trigger 2 fires on its first hit" true (fire "q" = Some "q");
  check "exhausted plan runs fault-free" true
    (fire "p" = None && fire "q" = None && fire "r" = None);
  Resil.Fault.disarm ();
  check "disarmed" true (not (Obs.Probe.armed ()));
  (* an always-fire trigger fires at every hit of its point and never
     advances the sequence — a later trigger stays dormant *)
  Resil.Fault.arm_seq
    [ Resil.Fault.Every_point "p"; Resil.Fault.At_hit 1 ];
  check "always-fire passes other points" true (fire "q" = None);
  check "always-fire fires on its point" true (fire "p" = Some "p");
  check "always-fire fires again" true (fire "p" = Some "p");
  check "the sequence never advances" true (fire "q" = None);
  Resil.Fault.disarm ()

let test_fault_suspended () =
  Resil.Fault.arm_seq [ Resil.Fault.At_hit 2 ];
  check "one hit consumed" true (fire "x" = None);
  let inside =
    Resil.Fault.suspended (fun () ->
        fire "x" = None && fire "x" = None && fire "x" = None)
  in
  check "no injection while suspended" true inside;
  (* re-installed with its counter intact: one more hit fires *)
  check "trigger fires after resumption" true (fire "x" = Some "x");
  Resil.Fault.disarm ()

(* ------------------------------------------------------------------ *)
(* Serve supervisor: the degradation ladder                             *)
(* ------------------------------------------------------------------ *)

let ladder_fixture () =
  Term.reset_nulls ();
  let store = ref (Incr.create serve_sigma serve_db) in
  let image = ref (Incr.image !store) in
  let restore () = Incr.of_image serve_sigma !image in
  let rechase st = Incr.create serve_sigma (Incr.base st) in
  (store, restore, rechase)

let test_ladder_clean_apply () =
  let store, restore, rechase = ladder_fixture () in
  match
    Resil.Serve_supervisor.apply ~sleep:(fun _ -> ()) ~restore ~rechase ~store
      (Incr.Insert (fact "A" [ "c" ]))
  with
  | Resil.Serve_supervisor.Applied (eff, [ s ]) ->
      check "applied" true (not eff.Incr.e_noop);
      check "single clean attempt on the repair rung" true
        (s.Resil.Serve_supervisor.st_rung = Resil.Serve_supervisor.Repair
        && s.Resil.Serve_supervisor.st_outcome = `Ok)
  | _ -> Alcotest.fail "expected a one-step Applied"

let test_ladder_retries_clean_fault () =
  let store, restore, rechase = ladder_fixture () in
  (* the incr.delete probe fires before any state change: the store is
     left clean and attempt 2 repairs in place *)
  Resil.Fault.arm_seq [ Resil.Fault.At_point ("incr.delete", 1) ];
  let outcome =
    Fun.protect ~finally:Resil.Fault.disarm (fun () ->
        Resil.Serve_supervisor.apply ~retries:3 ~sleep:(fun _ -> ()) ~restore
          ~rechase ~store
          (Incr.Delete (fact "A" [ "a" ])))
  in
  match outcome with
  | Resil.Serve_supervisor.Applied (eff, steps) ->
      check "mutation landed" true (not eff.Incr.e_noop);
      check "transcript: repair faulted, rederive succeeded" true
        (List.map
           (fun (s : Resil.Serve_supervisor.step) ->
             ( s.st_rung,
               match s.st_outcome with `Ok -> true | `Fault _ -> false ))
           steps
        = [
            (Resil.Serve_supervisor.Repair, false);
            (Resil.Serve_supervisor.Rederive, true);
          ]);
      check "deleted from the store" true
        (not (Instance.mem (fact "A" [ "a" ]) (Incr.instance !store)))
  | _ -> Alcotest.fail "expected Applied after one retry"

let test_ladder_restores_dirty_store () =
  let store, restore, rechase = ladder_fixture () in
  (* a fault mid-insert (inside the delta fixpoint) leaves the store
     dirty; the rederive rung must restore before retrying *)
  Resil.Fault.arm_seq [ Resil.Fault.At_point ("engine.pass", 1) ];
  let outcome =
    Fun.protect ~finally:Resil.Fault.disarm (fun () ->
        Resil.Serve_supervisor.apply ~retries:3 ~sleep:(fun _ -> ()) ~restore
          ~rechase ~store
          (Incr.Insert (fact "A" [ "z" ])))
  in
  match outcome with
  | Resil.Serve_supervisor.Applied (_, steps) ->
      check_int "two attempts" 2 (List.length steps);
      check "store is clean afterwards" true (not (Incr.dirty !store));
      check "inserted chain present" true
        (Instance.mem (fact "B" [ "z" ]) (Incr.instance !store))
  | _ -> Alcotest.fail "expected Applied after restoring the dirty store"

let test_ladder_quarantines_poison () =
  let store, restore, rechase = ladder_fixture () in
  let before = Incr.instance !store in
  Resil.Fault.arm_seq
    [
      Resil.Fault.At_point ("incr.delete", 1);
      Resil.Fault.At_point ("incr.delete", 1);
      Resil.Fault.At_point ("incr.delete", 1);
    ];
  let outcome =
    Fun.protect ~finally:Resil.Fault.disarm (fun () ->
        Resil.Serve_supervisor.apply ~retries:3 ~sleep:(fun _ -> ()) ~restore
          ~rechase ~store
          (Incr.Delete (fact "A" [ "a" ])))
  in
  (match outcome with
  | Resil.Serve_supervisor.Quarantined (steps, msg) ->
      check "transcript climbs the whole ladder" true
        (List.map
           (fun (s : Resil.Serve_supervisor.step) -> s.st_rung)
           steps
        = [
            Resil.Serve_supervisor.Repair;
            Resil.Serve_supervisor.Rederive;
            Resil.Serve_supervisor.Rechase;
          ]);
      check "diagnostic names the fault" true
        (contains_sub msg "incr.delete")
  | _ -> Alcotest.fail "expected Quarantined");
  check "pre-mutation store restored" true
    (Instance.equal before (Incr.instance !store));
  (* the poison is contained: the next mutation applies cleanly *)
  match
    Resil.Serve_supervisor.apply ~sleep:(fun _ -> ()) ~restore ~rechase ~store
      (Incr.Insert (fact "A" [ "c" ]))
  with
  | Resil.Serve_supervisor.Applied (eff, _) ->
      check "later mutations still apply" true (not eff.Incr.e_noop)
  | _ -> Alcotest.fail "store unusable after quarantine"

(* ------------------------------------------------------------------ *)
(* Serve session: append-before-apply, re-anchoring, replay            *)
(* ------------------------------------------------------------------ *)

let session_ops =
  [
    Incr.Insert (fact "A" [ "c" ]);
    Incr.Delete (fact "A" [ "a" ]);
    Incr.Insert (fact "A" [ "d" ]);
    Incr.Delete (fact "A" [ "c" ]);
  ]

(* Serve [session_ops] through a WAL-backed session with two attempts
   per mutation under [plan], then read the directory back: the live
   store, the outcomes, the recovery and its replay. *)
let run_session plan =
  Term.reset_nulls ();
  with_tmpdir (fun dir ->
      let module Sup = Resil.Serve_supervisor in
      let s =
        Sup.start ~retries:2 ~sleep:(fun _ -> ()) ~fault_plan:plan ~wal:dir
          serve_sigma
          (Incr.create serve_sigma serve_db)
      in
      let outcomes =
        Fun.protect
          ~finally:(fun () -> Sup.close s)
          (fun () -> List.map (Sup.step s) session_ops)
      in
      match Resil.Wal.recover ~dir with
      | Error e -> Alcotest.fail e
      | Ok r -> (Sup.store s, outcomes, r, Sup.replay serve_sigma r))

let seqs r = List.map fst r.Resil.Wal.rec_ops

let test_session_climb_reanchors () =
  (* the first delete faults on the repair rung and is retried on the
     rechase rung, which invents fresh nulls *)
  let live, outcomes, r, replayed =
    run_session [ Resil.Fault.At_point ("incr.delete", 1) ]
  in
  (match List.nth outcomes 1 with
  | Resil.Serve_supervisor.Applied (_, [ _; s ]) ->
      check "climbed to the rechase rung" true
        (s.Resil.Serve_supervisor.st_rung = Resil.Serve_supervisor.Rechase)
  | _ -> Alcotest.fail "expected mutation 2 applied after one climb");
  check_int "image at the climbed seq" 2 r.Resil.Wal.rec_image_seq;
  check "tail after the climb" true (seqs r = [ 3; 4 ]);
  check "replay equals the live store, null ids included" true
    (Instance.equal (Incr.instance replayed) (Incr.instance live));
  check "replay equals the live image" true
    (Incr.image replayed = Incr.image live)

let test_session_quarantine_skipped () =
  let delete = Resil.Fault.At_point ("incr.delete", 1) in
  let live, outcomes, r, replayed = run_session [ delete; delete ] in
  (match List.nth outcomes 1 with
  | Resil.Serve_supervisor.Quarantined _ -> ()
  | _ -> Alcotest.fail "expected mutation 2 quarantined");
  check "quarantine record read back" true
    (r.Resil.Wal.rec_quarantined = [ 2 ]);
  check_int "no re-anchor" 0 r.Resil.Wal.rec_image_seq;
  check "quarantined mutation not replayed" true (seqs r = [ 1; 3; 4 ]);
  check "poisoned delete left the store as it was" true
    (Instance.mem (fact "A" [ "a" ]) (Incr.instance live));
  check "replay equals the live store, null ids included" true
    (Instance.equal (Incr.instance replayed) (Incr.instance live))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_checkpoint_roundtrip;
      prop_resume_equiv;
      prop_supervised_equiv;
      prop_fault_plan_roundtrip;
    ]

let () =
  Alcotest.run "resil"
    [
      ( "units",
        [
          Alcotest.test_case "checkpoint disk round-trip" `Quick
            test_checkpoint_disk_roundtrip;
          Alcotest.test_case "checkpoint schema validation" `Quick
            test_checkpoint_rejects_bad_schema;
          Alcotest.test_case "legacy parallel checkpoint resumes" `Quick
            (test_legacy_checkpoint legacy_parallel_checkpoint);
          Alcotest.test_case "legacy naive checkpoint resumes" `Quick
            (test_legacy_checkpoint legacy_naive_checkpoint);
          Alcotest.test_case "supervisor failure is a typed outcome" `Quick
            test_supervisor_failed_is_typed;
          Alcotest.test_case "supervisor backoff sequence" `Quick
            test_supervisor_backoff_sequence;
          Alcotest.test_case "supervisor persists checkpoints" `Quick
            test_supervisor_checkpoints_to_disk;
          Alcotest.test_case "supervisor logs pinned" `Quick
            test_supervisor_logs_pinned;
          Alcotest.test_case "supervisor every-point plan" `Quick
            test_supervisor_every_point;
          Alcotest.test_case "supervisor lets Fatal escape" `Quick
            test_supervisor_fatal_escapes;
          Alcotest.test_case "bare supervisor allocates like the chase" `Quick
            test_supervisor_bare_words;
          Alcotest.test_case "fault retry loop" `Quick test_fault_retry;
          Alcotest.test_case "fault plan parsing" `Quick test_fault_parse;
          Alcotest.test_case "fault arming is deterministic" `Quick
            test_fault_arm_determinism;
          Alcotest.test_case "checkpoint errors are typed" `Quick
            test_checkpoint_typed_errors;
          Alcotest.test_case "checkpoint null_count covers its nulls" `Quick
            test_checkpoint_rejects_low_null_count;
          Alcotest.test_case "checkpoint s-levels in range" `Quick
            test_checkpoint_rejects_bad_level;
          Alcotest.test_case "crc32" `Quick test_crc32;
          Alcotest.test_case "fault sequential plans" `Quick test_fault_arm_seq;
          Alcotest.test_case "fault suspension" `Quick test_fault_suspended;
        ] );
      ( "wal",
        [
          Alcotest.test_case "append and recover round-trip" `Quick
            test_wal_roundtrip;
          Alcotest.test_case "rotation prunes and stays recoverable" `Quick
            test_wal_rotation_prunes;
          Alcotest.test_case "torn tail is truncated" `Quick
            test_wal_truncates_torn_tail;
          Alcotest.test_case "interior corruption is an error" `Quick
            test_wal_rejects_interior_corruption;
          Alcotest.test_case "image codec round-trip" `Quick
            test_wal_image_codec_roundtrip;
          Alcotest.test_case "pinned v2 image re-serialises" `Quick
            test_wal_pinned_v2_image;
          Alcotest.test_case "image bytes pinned on lubm-10" `Quick
            test_wal_image_bytes_pinned_lubm;
          Alcotest.test_case "image bytes pinned on lubm-10, loaded" `Quick
            test_wal_image_bytes_pinned_lubm_loaded;
          Alcotest.test_case "image null_count covers its nulls" `Quick
            test_wal_image_rejects_low_null_count;
          Alcotest.test_case "image base within its facts" `Quick
            (test_wal_image_rejects ~field:"base"
               ~value:{|[{"p":"A","a":["a"]}]|}
               ~diagnostic:"base fact outside facts");
          Alcotest.test_case "image ledger within its facts" `Quick
            (test_wal_image_rejects ~field:"ledger"
               ~value:
                 {|[{"r":0,"k":["b"],"b":[{"p":"A","a":["b"]}],"o":[{"p":"C","a":["b"]}]}]|}
               ~diagnostic:"ledger fact outside facts");
          Alcotest.test_case "image trigger keys within its syms" `Quick
            (test_wal_image_rejects ~field:"ledger"
               ~value:
                 {|[{"r":0,"k":["z"],"b":[{"p":"A","a":["b"]}],"o":[{"p":"B","a":["b"]}]}]|}
               ~diagnostic:"trigger-key constant outside syms");
          Alcotest.test_case "image trigger keys have no null slot" `Quick
            (test_wal_image_rejects ~field:"ledger"
               ~value:
                 {|[{"r":0,"k":[null],"b":[{"p":"A","a":["b"]}],"o":[{"p":"B","a":["b"]}]}]|}
               ~diagnostic:"null trigger-key slot");
          Alcotest.test_case "corrupt newer image is fallen past" `Quick
            test_wal_falls_back_past_corrupt_image;
          Alcotest.test_case "unreadable segment is an error" `Quick
            test_wal_recover_unreadable_segment;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "clean apply is one repair step" `Quick
            test_ladder_clean_apply;
          Alcotest.test_case "clean fault retries in place" `Quick
            test_ladder_retries_clean_fault;
          Alcotest.test_case "dirty store is restored" `Quick
            test_ladder_restores_dirty_store;
          Alcotest.test_case "poison mutation is quarantined" `Quick
            test_ladder_quarantines_poison;
        ] );
      ( "session",
        [
          Alcotest.test_case "climb re-anchors the WAL" `Quick
            test_session_climb_reanchors;
          Alcotest.test_case "quarantined mutation is not replayed" `Quick
            test_session_quarantine_skipped;
        ] );
      ("properties", qcheck_tests);
    ]
