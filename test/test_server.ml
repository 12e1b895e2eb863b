(* lib/server: the wire protocol and the concurrent serving loop.

   The protocol tests pin the request grammar (verb + single query
   clause) and the canonical reply bytes. The daemon tests drive
   {!Server.Daemon.run} over temp channels and pin the determinism
   contract: for a fixed request file the {e sorted} reply transcript is
   byte-identical under any worker count — replies carry request ids, so
   scheduling only permutes lines, never changes them. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i =
    i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1))
  in
  ln = 0 || go 0

(* ------------------------------------------------------------------ *)
(* protocol                                                             *)
(* ------------------------------------------------------------------ *)

let parse_request s =
  match Server.Protocol.parse_line ~id:1 s with
  | Server.Protocol.Request r -> r
  | Server.Protocol.Empty -> Alcotest.failf "parsed as empty: %S" s
  | Server.Protocol.Malformed m -> Alcotest.failf "malformed (%s): %S" m s

let test_parse_requests () =
  (match Server.Protocol.parse_line ~id:1 "" with
  | Server.Protocol.Empty -> ()
  | _ -> Alcotest.fail "blank line should be Empty");
  (match Server.Protocol.parse_line ~id:1 "% a comment" with
  | Server.Protocol.Empty -> ()
  | _ -> Alcotest.fail "comment line should be Empty");
  let r = parse_request "answers q(X) :- prof(X)." in
  check "verb answers" true (r.Server.Protocol.verb = Server.Protocol.Answers);
  check_int "id threaded" 1 r.Server.Protocol.id;
  let c = parse_request "count q(X) :- prof(X)." in
  check "verb count" true (c.Server.Protocol.verb = Server.Protocol.Count)

let test_parse_canonical_key () =
  (* the quarantine key is rendered from the parsed query, so spelling
     differences (whitespace) collapse to one canonical key — while the
     verb keeps answers/count distinct *)
  let a = parse_request "answers q(X) :- prof(X), teaches(X,C)." in
  let b = parse_request "answers   q(X)  :-  prof(X) ,teaches(X, C)." in
  check_str "whitespace-insensitive key" (Server.Protocol.key a)
    (Server.Protocol.key b);
  let t = parse_request "answers q(X):-\tprof( X ),teaches(X,C) .   " in
  check_str "tabs and padding share the key" (Server.Protocol.key a)
    (Server.Protocol.key t);
  let c = parse_request "count q(X) :- prof(X), teaches(X,C)." in
  check "verb is part of the key" true
    (Server.Protocol.key a <> Server.Protocol.key c)

let malformed s =
  match Server.Protocol.parse_line ~id:1 s with
  | Server.Protocol.Malformed m -> m
  | Server.Protocol.Empty -> Alcotest.failf "parsed as empty: %S" s
  | Server.Protocol.Request _ -> Alcotest.failf "parsed as request: %S" s

let test_parse_rejections () =
  check "unknown verb" true
    (contains (malformed "frobnicate q(X) :- prof(X).") "unknown verb");
  check "facts rejected" true
    (contains (malformed "answers prof(ada).") "only query clauses");
  check "tgds rejected" true
    (contains (malformed "answers prof(X) -> dean(X).") "only query clauses");
  check "two query names rejected" true
    (contains
       (malformed "answers q(X) :- prof(X). r(X) :- course(X).")
       "one query name");
  check "empty body rejected" true
    (contains (malformed "answers") "no query clause");
  check "syntax error carries position" true
    (contains (malformed "answers q(X :- prof(X).") "column");
  check "a missing term is located at the lexeme read" true
    (contains
       (malformed "answers q(X) :- p(X,.")
       "column 13: expected a term (found '.')")

let result answers outcome = Engine.Enumerate.of_answers answers outcome

let test_render_replies () =
  let open Relational.Term in
  let r = parse_request "answers q(X) :- prof(X)." in
  check_str "answers reply" "1 ok 2 (ada) (bob)"
    (Server.Protocol.render_ok r ~saturated:true
       (result [ [ Named "ada" ]; [ Named "bob" ] ] Obs.Budget.Complete));
  check_str "boolean reply has the empty tuple" "1 ok 1 ()"
    (Server.Protocol.render_ok r ~saturated:true
       (result [ [] ] Obs.Budget.Complete));
  check_str "null spelled like the pretty-printer" "1 ok 1 (ada,_:n3)"
    (Server.Protocol.render_ok r ~saturated:true
       (result [ [ Named "ada"; Null 3 ] ] Obs.Budget.Complete));
  let c = parse_request "count q(X) :- prof(X)." in
  check_str "count reply" "1 ok count=2"
    (Server.Protocol.render_ok c ~saturated:true
       (result [ [ Named "ada" ]; [ Named "bob" ] ] Obs.Budget.Complete));
  (* partial on either a cut budget or an unsaturated store *)
  check_str "budget cut renders partial" "1 partial 1 (ada)"
    (Server.Protocol.render_ok r ~saturated:true
       (result [ [ Named "ada" ] ] (Obs.Budget.Partial (Obs.Budget.Facts 1))));
  check_str "unsaturated store renders partial" "1 partial 1 (ada)"
    (Server.Protocol.render_ok r ~saturated:false
       (result [ [ Named "ada" ] ] Obs.Budget.Complete));
  check_str "error replies are one line" "7 error a b"
    (Server.Protocol.render_error ~id:7 "a\nb");
  check_str "quarantined reply" "9 quarantined"
    (Server.Protocol.render_quarantined ~id:9)

(* ------------------------------------------------------------------ *)
(* daemon                                                               *)
(* ------------------------------------------------------------------ *)

let program =
  "prof(X) -> teaches(X,C).\n\
   teaches(X,C) -> course(C).\n\
   teaches(X,C) -> faculty(X).\n\
   prof(ada). prof(bob). prof(eve). prof(kay). prof(lin).\n\
   student(sam). student(ada).\n"

let snapshot ?(max_level = 6) text =
  let p = Syntax.Parser.parse text in
  let db = Syntax.Parser.database p in
  let r = Tgds.Chase.run ~max_level p.Syntax.Parser.tgds db in
  Engine.Snapshot.freeze
    ~saturated:(Tgds.Chase.saturated r)
    ~universe:(Relational.Instance.dom db)
    (Tgds.Chase.index r)

(* feed [lines] through temp files; return the summary and transcript *)
let run_daemon ?report ?stop ?(workers = 1) ?(fault_plan = []) ?max_facts
    ?max_ms snap lines =
  let req = Filename.temp_file "srv_req" ".txt" in
  let rep = Filename.temp_file "srv_rep" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove req;
      Sys.remove rep)
    (fun () ->
      let oc = open_out req in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      let ic = open_in req and oc = open_out rep in
      let summary =
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            close_out_noerr oc)
          (fun () ->
            Server.Daemon.run ?report ?stop
              { Server.Daemon.workers; max_facts; max_ms; fault_plan }
              snap ic oc)
      in
      let ic = open_in rep in
      let transcript =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (summary, transcript))

let transcript_lines t =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' t)

let test_daemon_serves_mixed_requests () =
  let snap = snapshot program in
  let summary, t =
    run_daemon snap
      [
        "answers q(X) :- prof(X).";
        "";
        "% comments and blanks get no reply";
        "count q(X) :- faculty(X).";
        "bogus q(X) :- prof(X).";
        "answers q(X,C) :- teaches(X,C), course(C).";
      ]
  in
  check_int "served counts replies only" 4 summary.Server.Daemon.served;
  check_int "ok" 3 summary.Server.Daemon.ok;
  check_int "errors" 1 summary.Server.Daemon.errors;
  let lines = transcript_lines t in
  check_int "one line per reply" 4 (List.length lines);
  check "scan carries every prof" true
    (contains t "1 ok 5 (ada) (bob) (eve) (kay) (lin)");
  check "count reply" true (contains t "4 ok count=5");
  check "malformed line is answered in place" true
    (contains t "5 error unknown verb");
  (* the join's answers are certain: nulls never appear in a tuple *)
  check "no nulls leak into answers" false (contains t "_:n")

(* the seeded-scheduler pin: one request file (a seeded pseudo-random
   mix over the template set, with comments and a malformed line mixed
   in), served under workers 1/2/4 — the sorted transcripts must be
   byte-identical, and the single-worker transcript is already id-sorted
   because one worker drains the queue in order *)
let test_daemon_scheduling_determinism () =
  let snap = snapshot program in
  let templates =
    [|
      "answers q(X) :- prof(X).";
      "count q(X) :- faculty(X).";
      "answers q(X,C) :- teaches(X,C).";
      "count q(S) :- student(S). q(S) :- prof(S).";
      "answers q(X,C) :- prof(X), teaches(X,C), course(C).";
      "% noise";
      "not a request at all";
    |]
  in
  let rng = Random.State.make [| 0x5eed |] in
  let lines =
    List.init 200 (fun _ ->
        templates.(Random.State.int rng (Array.length templates)))
  in
  let sorted_by_id t =
    transcript_lines t
    |> List.map (fun l ->
           let id =
             match String.index_opt l ' ' with
             | Some i -> int_of_string (String.sub l 0 i)
             | None -> Alcotest.failf "reply without id: %S" l
           in
           (id, l))
    |> List.sort compare |> List.map snd
  in
  let run workers =
    let summary, t = run_daemon ~workers snap lines in
    check "every request is answered" true
      (summary.Server.Daemon.served
      = List.length (List.filter (fun l -> l <> "" && l.[0] <> '%') lines));
    (summary, t)
  in
  let _, t1 = run 1 in
  let s2, t2 = run 2 in
  let s4, t4 = run 4 in
  Alcotest.(check (list string))
    "workers 2 permutes but never changes replies" (sorted_by_id t1)
    (sorted_by_id t2);
  Alcotest.(check (list string))
    "workers 4 permutes but never changes replies" (sorted_by_id t1)
    (sorted_by_id t4);
  check_str "single worker replies in request order" t1
    (String.concat "" (List.map (fun l -> l ^ "\n") (sorted_by_id t1)));
  check_int "classification independent of scheduling"
    s2.Server.Daemon.errors s4.Server.Daemon.errors

let test_daemon_budget_cuts_to_partial () =
  let snap = snapshot program in
  let summary, t =
    run_daemon ~max_facts:2 snap
      [ "answers q(X) :- prof(X)."; "count q(X) :- prof(X)." ]
  in
  check_int "both replies partial" 2 summary.Server.Daemon.partial;
  check_int "none ok" 0 summary.Server.Daemon.ok;
  (* the cut is trigger-atomic: at most max_facts + 1 answers survive,
     and every one is sound (a real prof — fresh nulls never answer) *)
  let profs = [ "(ada)"; "(bob)"; "(eve)"; "(kay)"; "(lin)" ] in
  List.iter
    (fun l ->
      check "reply is partial" true (contains l "partial");
      let tuples =
        List.length
          (List.filter (fun p -> contains l p) profs)
      in
      check "sound subset, within the cut" true
        (if contains l "count=" then true else tuples >= 1 && tuples <= 3))
    (transcript_lines t)

let test_daemon_unsaturated_is_partial () =
  (* a truncated chase still serves, but every reply is partial *)
  let snap = snapshot ~max_level:1 program in
  check "snapshot knows it is truncated" false (Engine.Snapshot.saturated snap);
  let summary, t = run_daemon snap [ "answers q(X) :- prof(X)." ] in
  check_int "reply is partial" 1 summary.Server.Daemon.partial;
  check "bytes say partial" true (contains t "1 partial")

let test_daemon_quarantine () =
  let snap = snapshot program in
  let plan =
    match Resil.Fault.parse "point:engine.answer:1" with
    | Ok p -> p
    | Error e -> Alcotest.failf "fault plan: %s" e
  in
  let report = Obs.Report.create "server-quarantine" in
  let summary, t =
    run_daemon ~report ~fault_plan:plan snap
      [
        "answers q(X) :- prof(X).";
        "answers q(X) :- prof(X).";
        "answers  q(X)  :-  prof(X).";
        "count q(X) :- faculty(X).";
      ]
  in
  let lines = transcript_lines t in
  check "first hit faults" true (contains t "1 error injected fault");
  check "identical query is refused unevaluated" true
    (List.mem "2 quarantined" lines);
  check "quarantine keys on the canonical query, not the bytes" true
    (List.mem "3 quarantined" lines);
  check "other queries keep serving" true (contains t "4 ok count=5");
  check_int "errors counted" 1 summary.Server.Daemon.errors;
  check_int "quarantined counted" 2 summary.Server.Daemon.quarantined;
  check_int "rest served ok" 1 summary.Server.Daemon.ok;
  (* the latency histogram records every well-formed outcome — the
     fault and both quarantine refusals included — so qps/percentiles
     describe the full served stream *)
  match
    List.assoc_opt "server.request_s"
      (Obs.Metrics.histograms (Obs.Report.metrics report))
  with
  | Some s ->
      check_int "fault and refusals observed in request_s" 4
        s.Obs.Metrics.count
  | None -> Alcotest.fail "server.request_s histogram missing"

let test_daemon_rejects_concurrent_faults () =
  let snap = snapshot program in
  let plan =
    match Resil.Fault.parse "point:engine.answer:1" with
    | Ok p -> p
    | Error e -> Alcotest.failf "fault plan: %s" e
  in
  check "counted fault plan with workers > 1 is refused" true
    (match run_daemon ~workers:2 ~fault_plan:plan snap [] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "workers < 1 is refused" true
    (match run_daemon ~workers:0 snap [] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* a stateless (always-fire) plan touches no trigger state, so it is
     allowed under concurrent workers *)
  let stateless =
    match Resil.Fault.parse "point:engine.answer:*" with
    | Ok p -> p
    | Error e -> Alcotest.failf "fault plan: %s" e
  in
  match run_daemon ~workers:2 ~fault_plan:stateless snap [] with
  | summary, _ -> check_int "stateless plan accepted" 0 summary.Server.Daemon.served
  | exception Invalid_argument m ->
      Alcotest.failf "stateless plan refused: %s" m

(* duplicates of a poison query faulting
   {e concurrently} must classify identically under any worker count —
   the quarantine mark is check-and-set under one lock, so exactly one
   duplicate reports the error and the rest are quarantined, whether
   they faulted in sequence (workers 1: later duplicates are refused by
   the pre-check) or in a race (workers 4: several evaluations fault,
   one wins the mark) *)
let test_daemon_concurrent_poison_determinism () =
  let snap = snapshot program in
  let plan =
    match Resil.Fault.parse "point:engine.answer:*" with
    | Ok p -> p
    | Error e -> Alcotest.failf "fault plan: %s" e
  in
  (* the poison query emits an answer, so the always-fire trigger kills
     every evaluation of it; it comes in three spellings, which share
     one lazily rendered key. The interleaved requests are answer-free
     (no probe hit) and must keep serving past the non-empty table *)
  let poison =
    [|
      "answers q(X) :- prof(X).";
      "answers   q(X):-prof( X ) .";
      "answers q(X) :-\tprof(X).   ";
    |]
  in
  let lines =
    List.concat
      (List.init 6 (fun i ->
           [ poison.(i mod 3); "count q(X) :- missing(X)." ]))
  in
  List.iter
    (fun workers ->
      let summary, t = run_daemon ~workers ~fault_plan:plan snap lines in
      if workers = 1 then
        check "respellings are quarantined" true
          (List.mem "3 quarantined" (transcript_lines t)
          && List.mem "5 quarantined" (transcript_lines t));
      check_int
        (Fmt.str "exactly one error at workers %d" workers)
        1 summary.Server.Daemon.errors;
      check_int
        (Fmt.str "other duplicates quarantined at workers %d" workers)
        5 summary.Server.Daemon.quarantined;
      check_int
        (Fmt.str "answer-free requests keep serving at workers %d" workers)
        6 summary.Server.Daemon.ok;
      check "failure message carries the fixed hit payload" true
        (contains t "injected fault at engine.answer (hit 1)"))
    [ 1; 2; 4 ]

(* Serve the raw input [data] from a regular file (reads of exactly
   65,536 bytes) or through a pipe, at [workers]: the summary and the
   sorted reply lines. *)
let label pipe workers =
  Fmt.str "(%s, workers %d)" (if pipe then "pipe" else "file") workers

let serve_raw snap data ~pipe workers =
  let out = Filename.temp_file "srv_raw" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let ic, feed =
        if pipe then begin
          let r, w = Unix.pipe () in
          let feed =
            Domain.spawn (fun () ->
                let oc = Unix.out_channel_of_descr w in
                output_string oc data;
                close_out oc)
          in
          (Unix.in_channel_of_descr r, Some feed)
        end
        else begin
          let inp = Filename.temp_file "srv_raw" ".in" in
          let oc = open_out_bin inp in
          output_string oc data;
          close_out oc;
          let ic = open_in_bin inp in
          Sys.remove inp;
          (ic, None)
        end
      in
      let oc = open_out out in
      let summary =
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            Option.iter (fun d -> try Domain.join d with _ -> ()) feed;
            close_out_noerr oc)
          (fun () ->
            Server.Daemon.run
              { Server.Daemon.workers; max_facts = None; max_ms = None;
                fault_plan = [] }
              snap ic oc)
      in
      let ic = open_in out in
      let t = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (summary, List.sort compare (transcript_lines t)))

(* the input path at read-chunk boundaries: one line longer than a
   whole 64 KiB read, one line whose newline is the last byte of a read,
   blank and comment lines, and a final line without a newline. Served
   from a file and through a pipe, at workers 1, 2 and 4: one reply per
   non-empty line, and the same sorted transcript every time *)
let test_daemon_read_chunk_boundaries () =
  let snap = snapshot program in
  let chunk = 65536 in
  let head = [ "answers q(X) :- prof(X)."; ""; "% a comment"; "" ] in
  let head_bytes =
    List.fold_left (fun n l -> n + String.length l + 1) 0 head
  in
  (* trailing spaces are trimmed, so the padded line is still a request;
     its newline lands on byte [chunk - 1] *)
  let edge = "count q(X) :- faculty(X)." in
  let pad = chunk - 1 - head_bytes - String.length edge in
  let edge = edge ^ String.make pad ' ' in
  let long = "frobnicate " ^ String.make (chunk + 4000) 'x' in
  let lines =
    head
    @ [ edge; "answers q(X,C) :- teaches(X,C)."; long; "% tail comment"; "";
        "count q(X) :- prof(X)." ]
  in
  let data = String.concat "\n" lines in
  check_int "edge newline ends the first read" (chunk - 1)
    (String.index_from data head_bytes '\n');
  let expected =
    List.length
      (List.filter (fun l -> String.trim l <> "" && l.[0] <> '%') lines)
  in
  let serve ~pipe workers =
    let summary, sorted = serve_raw snap data ~pipe workers in
    let where = label pipe workers in
    check_int ("one reply per non-empty line " ^ where) expected
      summary.Server.Daemon.served;
    check_int ("the long line is the one error " ^ where) 1
      summary.Server.Daemon.errors;
    sorted
  in
  let reference = serve ~pipe:false 1 in
  check "the boundary line is answered whole" true
    (List.mem "5 ok count=5" reference);
  check "the line after the boundary is answered" true
    (List.exists (String.starts_with ~prefix:"6 ok ") reference);
  check "the long line's junk verb is refused" true
    (List.exists
       (String.starts_with ~prefix:"7 error unknown verb")
       reference);
  check "the unterminated last line is answered" true
    (List.mem "10 ok count=5" reference);
  List.iter
    (fun (pipe, workers) ->
      Alcotest.(check (list string))
        ("same sorted transcript " ^ label pipe workers)
        reference (serve ~pipe workers))
    [ (false, 2); (false, 4); (true, 1); (true, 2); (true, 4) ]

(* a 3 MiB line, over the 1 MiB cap, is not buffered: it gets exactly
   one error reply under its own id, and the lines after it — a request,
   then a final unterminated one — keep theirs. File and pipe, workers
   1, 2 and 4: the same sorted transcript *)
let test_daemon_overlong_line () =
  let snap = snapshot program in
  let data =
    String.make (3 lsl 20) 'x' ^ "\ncount q(X) :- prof(X).\ncount q(X) :- faculty(X)."
  in
  let serve ~pipe workers =
    let summary, sorted = serve_raw snap data ~pipe workers in
    let where = label pipe workers in
    check_int ("three replies " ^ where) 3 summary.Server.Daemon.served;
    check_int ("the overlong line is the one error " ^ where) 1
      summary.Server.Daemon.errors;
    sorted
  in
  let reference = serve ~pipe:false 1 in
  Alcotest.(check (list string))
    "one error, then the later lines under their ids"
    [ "1 error request line longer than 1048576 bytes"; "2 ok count=5";
      "3 ok count=5" ]
    reference;
  List.iter
    (fun (pipe, workers) ->
      Alcotest.(check (list string))
        ("same sorted transcript " ^ label pipe workers)
        reference (serve ~pipe workers))
    [ (false, 2); (false, 4); (true, 1); (true, 2); (true, 4) ]

let test_daemon_drain () =
  (* a pre-flipped stop is the degenerate drain: accept nothing, report
     drained *)
  let snap = snapshot program in
  let summary, t =
    run_daemon ~stop:(ref true) snap [ "answers q(X) :- prof(X)." ]
  in
  check "drained" true summary.Server.Daemon.drained;
  check_int "nothing served" 0 summary.Server.Daemon.served;
  check_str "no replies" "" t

let test_daemon_report () =
  let snap = snapshot program in
  let report = Obs.Report.create "server-test" in
  let summary, _ =
    run_daemon ~report ~workers:2 snap
      [
        "answers q(X) :- prof(X).";
        "count q(X) :- faculty(X).";
        "bogus";
        "answers q(X,C) :- teaches(X,C).";
      ]
  in
  check_int "served" 4 summary.Server.Daemon.served;
  let j = Obs.Report.to_json report in
  let member k =
    match Obs.Json.member k j with
    | Some v -> v
    | None -> Alcotest.failf "report field %s missing" k
  in
  check "requests field" true (member "server.requests" = Obs.Json.Int 4);
  check "workers field" true (member "server.workers" = Obs.Json.Int 2);
  check "errors field" true (member "server.errors" = Obs.Json.Int 1);
  check "qps present" true
    (match member "server.qps" with Obs.Json.Float _ -> true | _ -> false);
  (* the absorbed latency histogram covers evaluated requests only:
     malformed lines never reach the engine *)
  (match
     List.assoc_opt "server.request_s"
       (Obs.Metrics.histograms (Obs.Report.metrics report))
   with
  | Some s -> check_int "three evaluations observed" 3 s.Obs.Metrics.count
  | None -> Alcotest.fail "server.request_s histogram missing");
  (* one worker span per worker, each carrying request children *)
  match Obs.Json.member "span" j with
  | None -> Alcotest.fail "span missing"
  | Some s -> (
      match Obs.Json.member "children" s with
      | Some (Obs.Json.List kids) ->
          let names =
            List.filter_map
              (fun k ->
                match Obs.Json.member "name" k with
                | Some (Obs.Json.String n) -> Some n
                | _ -> None)
              kids
          in
          Alcotest.(check (list string))
            "worker spans in order" [ "worker-0"; "worker-1" ] names
      | _ -> Alcotest.fail "span has no children")

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "requests parse" `Quick test_parse_requests;
          Alcotest.test_case "canonical keys" `Quick test_parse_canonical_key;
          Alcotest.test_case "rejections" `Quick test_parse_rejections;
          Alcotest.test_case "reply rendering" `Quick test_render_replies;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "serves mixed requests" `Quick
            test_daemon_serves_mixed_requests;
          Alcotest.test_case "scheduling determinism (seeded)" `Quick
            test_daemon_scheduling_determinism;
          Alcotest.test_case "budget cuts to partial" `Quick
            test_daemon_budget_cuts_to_partial;
          Alcotest.test_case "unsaturated store serves partial" `Quick
            test_daemon_unsaturated_is_partial;
          Alcotest.test_case "quarantine" `Quick test_daemon_quarantine;
          Alcotest.test_case "fault plan needs one worker" `Quick
            test_daemon_rejects_concurrent_faults;
          Alcotest.test_case "concurrent poison classifies deterministically"
            `Quick test_daemon_concurrent_poison_determinism;
          Alcotest.test_case "read chunk boundaries" `Quick
            test_daemon_read_chunk_boundaries;
          Alcotest.test_case "overlong line" `Quick test_daemon_overlong_line;
          Alcotest.test_case "drain" `Quick test_daemon_drain;
          Alcotest.test_case "report plumbing" `Quick test_daemon_report;
        ] );
    ]
