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
   65,536 bytes) or through a pipe, non-blocking when [nonblock] (a read
   may then fail with EAGAIN), at [workers]: the summary and the sorted
   reply lines. *)
let label ?(nonblock = false) pipe workers =
  Fmt.str "(%s, workers %d)"
    (if nonblock then "non-blocking pipe" else if pipe then "pipe" else "file")
    workers

let serve_raw ?(nonblock = false) snap data ~pipe workers =
  let out = Filename.temp_file "srv_raw" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let ic, feed =
        if pipe then begin
          let r, w = Unix.pipe () in
          if nonblock then Unix.set_nonblock r;
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
    [ (false, 2); (false, 4); (true, 1); (true, 2); (true, 4) ];
  (* a reader that meets EAGAIN waits for input and reads on *)
  List.iter
    (fun workers ->
      let summary, sorted = serve_raw ~nonblock:true snap data ~pipe:true workers in
      let where = label ~nonblock:true true workers in
      check_int ("one reply per non-empty line " ^ where) expected
        summary.Server.Daemon.served;
      Alcotest.(check (list string))
        ("same sorted transcript " ^ where) reference sorted)
    [ 1; 2 ]

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

(* ------------------------------------------------------------------ *)
(* reply cache                                                          *)
(* ------------------------------------------------------------------ *)

module Rc = Server.Reply_cache

(* [n] lines of one length, each filed under a slot no other of them
   takes, so a miss among them can only come from the ring *)
let distinct_slot_lines n =
  let taken = Hashtbl.create n in
  let rec go k acc m =
    if m = n then List.rev acc
    else
      let l = Printf.sprintf "answers q(X) :- p(X,c%07d)." k in
      if Hashtbl.mem taken (Rc.slot l) then go (k + 1) acc m
      else (
        Hashtbl.add taken (Rc.slot l) ();
        go (k + 1) (l :: acc) (m + 1))
  in
  go 0 [] 0

let cached c line ~id =
  match Rc.find c line with -1 -> None | e -> Some (Rc.reply c e ~id)

let test_cache_roundtrip () =
  let c = Rc.create () in
  let l = "answers q(X) :- prof(X)." in
  check "empty cache misses" true (cached c l ~id:1 = None);
  Rc.add c l ~partial:false "17 ok 2 (ada) (bob)";
  check "hit renders under the new id" true
    (cached c l ~id:4321 = Some "4321 ok 2 (ada) (bob)");
  check "class kept" false (Rc.partial c (Rc.find c l));
  Rc.add c "count q(X) :- prof(X)." ~partial:true "3 partial count=2";
  check "partial class kept" true
    (Rc.partial c (Rc.find c "count q(X) :- prof(X)."));
  check "keyed on bytes, not on the parsed query" true
    (cached c "answers  q(X) :- prof(X)." ~id:1 = None)

let test_cache_ring_wraps () =
  let c = Rc.create () in
  let body = String.make 3000 'b' in
  let lines = distinct_slot_lines 600 in
  (* ~3 KiB entries: 600 of them lap the 512 KiB ring three times *)
  List.iteri
    (fun i l -> Rc.add c l ~partial:false (Printf.sprintf "%d ok %d %s" i i body))
    lines;
  let last = List.nth lines 599 in
  check "the newest entry reads back whole after the wrap" true
    (cached c last ~id:7 = Some ("7 ok 599 " ^ body));
  let per_lap = Rc.ring_bytes / (5 + String.length last + 4 + String.length body) in
  List.iteri
    (fun i l ->
      if i >= 600 - (per_lap / 2) then
        check (Printf.sprintf "entry %d of the last half lap hits" i) true
          (cached c l ~id:1 = Some (Printf.sprintf "1 ok %d %s" i body)))
    lines

(* An entry the next lap overwrites is gone even when the bytes that
   overwrite it spell its header and line again: a later entry [y],
   filed at the lap's start, carries [a]'s header and line in its body
   right where [a] stood. *)
let test_cache_overwritten_is_gone () =
  let c = Rc.create () in
  let r = Rc.ring_bytes in
  let a = "answers q(X) :- a(X)." and a_body = "ok 1 (a)" in
  let y = "answers q(X) :- y(X)." in
  let line k = Printf.sprintf "answers q(X) :- f(X,c%07d)." k in
  (* a filler shares no candidate slot with [a] or [y], so only the
     ring can evict them *)
  let taken = [ Rc.slot a; Rc.alt_slot a; Rc.slot y; Rc.alt_slot y ] in
  let rec filler k =
    let l = line k in
    if List.mem (Rc.slot l) taken || List.mem (Rc.alt_slot l) taken then
      filler (k + 1)
    else k
  in
  (* an entry of exactly [size] bytes under a filler line *)
  let k = ref 0 in
  let add_filler size =
    k := filler (!k + 1);
    let l = line !k in
    Rc.add c l ~partial:false ("1 " ^ String.make (size - 5 - String.length l) 'f')
  in
  let s0 = 1000 in
  add_filler s0;
  Rc.add c a ~partial:false ("1 " ^ a_body);
  let wpos = ref (s0 + 5 + String.length a + String.length a_body) in
  let len_y = s0 + 100 in
  (* [a] is looked up while it is in the ring's newer half, where a hit
     does not move it; no later filler reaches its bytes or its slots *)
  let looked = ref false in
  while r - !wpos >= len_y do
    if (not !looked) && !wpos + 8000 - s0 > r / 2 then begin
      check "a is still held" true (cached c a ~id:1 = Some ("1 " ^ a_body));
      looked := true
    end;
    let size = min 8000 (r - !wpos) in
    add_filler size;
    wpos := !wpos + size
  done;
  let u16 n = String.init 2 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff)) in
  let copy = u16 (String.length a) ^ u16 (String.length a_body) ^ "\000" ^ a in
  let off = s0 - 5 - String.length y in
  let y_body =
    String.init (len_y - 5 - String.length y) (fun j ->
        if j >= off && j < off + String.length copy then copy.[j - off] else 'Z')
  in
  Rc.add c y ~partial:false ("1 " ^ y_body);
  check "y is held" true (cached c y ~id:1 = Some ("1 " ^ y_body));
  check "the overwritten a misses" true (cached c a ~id:1 = None)

let test_cache_evicts_oldest () =
  let c = Rc.create () in
  let body = String.make 4000 'b' in
  let lines = Array.of_list (distinct_slot_lines 300) in
  (* after every add, the entries still held are the newest ones: a
     suffix of the insertion order *)
  let oldest_held = ref 0 in
  Array.iteri
    (fun i l ->
      Rc.add c l ~partial:false ("1 ok " ^ body);
      while cached c lines.(!oldest_held) ~id:1 = None do
        incr oldest_held
      done;
      for j = !oldest_held to i do
        if cached c lines.(j) ~id:1 <> Some ("1 ok " ^ body) then
          Alcotest.failf "entry %d gone while the older %d is held" j !oldest_held
      done)
    lines;
  check "entries were evicted" true (!oldest_held > 0);
  check "a lap of entries is held" true (300 - !oldest_held > 100)

(* the first line [line k] from [k] on that [p] accepts *)
let rec first_line line k p = if p (line k) then line k else first_line line (k + 1) p

let test_cache_slot_collision () =
  let line k = Printf.sprintf "answers q(X) :- p(X,c%07d)." k in
  (* lines of one length that share a candidate slot with a live entry:
     the stored line is compared byte for byte, so no entry answers for
     another line, whichever of the two slots they share *)
  let a = line 0 in
  let b = first_line line 1 (fun l -> Rc.slot l = Rc.slot a) in
  let b' = first_line line 1 (fun l -> Rc.alt_slot l = Rc.slot a) in
  let b'' = first_line line 1 (fun l -> Rc.slot l = Rc.alt_slot a) in
  check_int "same length" (String.length a) (String.length b);
  List.iter
    (fun (what, m) ->
      let c = Rc.create () in
      Rc.add c m ~partial:false "2 ok 1 (m)";
      check ("a collision is a miss: " ^ what) true (cached c a ~id:3 = None);
      let c = Rc.create () in
      Rc.add c a ~partial:false "1 ok 1 (a)";
      check ("a collision is a miss, reversed: " ^ what) true
        (cached c m ~id:3 = None);
      (* with one slot taken, the other line is filed under its other
         candidate, and both hit *)
      Rc.add c m ~partial:false "2 ok 1 (m)";
      check ("both sharers hit: " ^ what) true
        (cached c a ~id:3 = Some "3 ok 1 (a)" && cached c m ~id:3 = Some "3 ok 1 (m)"))
    [ ("first slots", b); ("first and second", b'); ("second and first", b'') ];
  (* [b] finds both its slots live: [a] in its first, [d], added after
     [a], in its second. It takes the older entry's slot, so [a] is
     displaced and misses, and [b] and [d] hit *)
  let d =
    first_line line 1 (fun l ->
        Rc.slot l = Rc.alt_slot b && Rc.alt_slot l <> Rc.slot a)
  in
  let c = Rc.create () in
  Rc.add c a ~partial:false "1 ok 1 (a)";
  Rc.add c d ~partial:false "1 ok 1 (d)";
  Rc.add c b ~partial:false "2 ok 1 (b)";
  check "the displaced line misses" true (cached c a ~id:3 = None);
  check "the later line hits" true (cached c b ~id:3 = Some "3 ok 1 (b)");
  check "the newer occupant stays" true (cached c d ~id:3 = Some "3 ok 1 (d)")

let test_cache_refuses_large () =
  let c = Rc.create () in
  let l = "answers q(X) :- big(X)." in
  let at_cap = Rc.max_entry - 5 - String.length l in
  Rc.add c l ~partial:false ("1 " ^ String.make (at_cap + 1) 'x');
  check "over ring/64 is not stored" true (cached c l ~id:1 = None);
  Rc.add c l ~partial:false ("1 " ^ String.make at_cap 'x');
  check "at ring/64 it is" true
    (cached c l ~id:1 = Some ("1 " ^ String.make at_cap 'x'));
  check "an overlong line is never looked up" true
    (Rc.find c (String.make Rc.max_entry 'a') = -1)

let test_cache_fixed_size () =
  let c = Rc.create () in
  let words () = Obj.reachable_words (Obj.repr c) in
  let w0 = words () in
  (* a flood of distinct lines of every size up to past the cap *)
  for i = 1 to 40_000 do
    Rc.add c (Printf.sprintf "answers q(X) :- p(X,c%d)." i) ~partial:(i land 1 = 0)
      (Printf.sprintf "%d ok 1 %s" i (String.make (i mod 9000) 'v'))
  done;
  check_int "reachable words unchanged by the flood" w0 (words ());
  check "the words are the ring's and its index's" true
    (w0 * 8 >= Rc.ring_bytes && w0 * 8 <= Rc.ring_bytes + (8 * 16384) + 64)

(* Seeded random [add]/[find] streams against a model: every hit must
   render the body (and class) last added for its line. The alphabet is
   tiny and built from gadgets of one line length each: a line [l], a
   line filed under [l]'s first slot and one under its second, so [l]
   finds both its slots live and displaces an entry, plus a line under
   each of those lines' second slots. Bodies of up to 7 KiB lap the ring
   every hundred-odd adds. A shadow of the ring's write position tells
   which misses come from slot displacement and which from laps, and
   which hits the second chance copies (and whether the copy overlaps
   its source at the write frontier); the copy's position must be the
   one [find] returns. *)
let test_cache_model () =
  let r = Rc.ring_bytes in
  let gadget fmt k0 =
    let line k = Printf.sprintf fmt k in
    let l = line k0 in
    let x = first_line line (k0 + 1) (fun m -> Rc.slot m = Rc.slot l) in
    let y = first_line line (k0 + 1) (fun m -> Rc.slot m = Rc.alt_slot l) in
    let x2 = first_line line (k0 + 1) (fun m -> Rc.slot m = Rc.alt_slot x) in
    let y2 = first_line line (k0 + 1) (fun m -> Rc.slot m = Rc.alt_slot y) in
    [ l; x; y; x2; y2 ]
  in
  let alphabet =
    Array.of_list
      (List.sort_uniq compare
         (gadget "%07d" 0 @ gadget "w%07d" 0 @ gadget "q(X) :- p(%05d)." 0
         @ gadget "answers q(X) :- p(X,c%07d)." 0))
  in
  check_int "four gadgets of five lines" 20 (Array.length alphabet);
  let text = String.init 16384 (fun i -> Char.chr (97 + (i * 7919 mod 26))) in
  let copies = ref 0 and frontier = ref 0 and displaced = ref 0 in
  let lapped = ref 0 and hits = ref 0 in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let c = Rc.create () in
      (* line -> (body, partial, absolute position of its entry) *)
      let model = Hashtbl.create 32 in
      let wpos = ref 0 in
      let place len =
        let o = !wpos mod r in
        let a = if o + len > r then !wpos + r - o else !wpos in
        wpos := a + len;
        a
      in
      for step = 1 to 30_000 do
        (* skewed draws: the low lines are hot, the high ones go cold *)
        let n = Array.length alphabet in
        let l = alphabet.(min (Random.State.int rng n) (Random.State.int rng n)) in
        if Random.State.int rng 5 < 2 then begin
          let size = 1 + Random.State.int rng 7000 in
          let body = String.sub text (Random.State.int rng (16384 - size)) size in
          let partial = Random.State.bool rng in
          Rc.add c l ~partial (Printf.sprintf "%d %s" step body);
          Hashtbl.replace model l (body, partial, place (5 + String.length l + size))
        end
        else
          match (Rc.find c l, Hashtbl.find_opt model l) with
          | -1, None -> ()
          | -1, Some (_, _, a) ->
              if !wpos - a <= r then incr displaced else incr lapped;
              Hashtbl.remove model l
          | _, None ->
              Alcotest.failf "seed %d step %d: %S hits, never added" seed step l
          | e, Some (body, partial, a) ->
              incr hits;
              let len = 5 + String.length l + String.length body in
              let a =
                if !wpos - a <= r / 2 then a
                else begin
                  let a' = place len in
                  incr copies;
                  if abs ((a' mod r) - (a mod r)) < len then incr frontier;
                  a'
                end
              in
              Hashtbl.replace model l (body, partial, a);
              if e <> a mod r then
                Alcotest.failf "seed %d step %d: %S found at %d, not at %d" seed step
                  l e (a mod r);
              if Rc.reply c e ~id:step <> Printf.sprintf "%d %s" step body
                 || Rc.partial c e <> partial
              then
                Alcotest.failf "seed %d step %d: %S renders a stale reply" seed
                  step l
      done)
    [ 1; 2; 3 ];
  let happened what n = check (Printf.sprintf "%s happen (%d)" what n) true (n > 0) in
  happened "hits" !hits;
  happened "slot displacements" !displaced;
  happened "ring laps" !lapped;
  happened "second-chance copies" !copies;
  happened "copies at the write frontier" !frontier

(* A line asked for every 300 adds survives a flood of distinct lines
   that laps the ring many times: each time it reaches the ring's older
   half a hit copies it to the head. The flood's lines share no slot
   with it, so only the ring could evict it. Neither [find] nor [add]
   allocates. *)
let test_cache_hot_line_survives () =
  let c = Rc.create () in
  let hot = "answers q(X) :- teaches(X,hot)." in
  let taken = [ Rc.slot hot; Rc.alt_slot hot ] in
  let flood =
    Array.of_list
      (List.filter
         (fun l -> not (List.mem (Rc.slot l) taken || List.mem (Rc.alt_slot l) taken))
         (List.init 40_000 (Printf.sprintf "answers q(X) :- p(X,c%07d).")))
  in
  let reply = "1 ok 3 " ^ String.make 100 'v' and hot_reply = "1 ok 1 (hot)" in
  Rc.add c hot ~partial:false hot_reply;
  let missed = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to Array.length flood - 1 do
    Rc.add c flood.(i) ~partial:false reply;
    if i mod 300 = 299 && Rc.find c hot < 0 then incr missed
  done;
  let words = Gc.minor_words () -. w0 in
  check "the flood laps the ring" true
    (Array.length flood * (5 + String.length flood.(0) + String.length reply - 2)
     > 8 * Rc.ring_bytes);
  check_int "the hot line never misses" 0 !missed;
  check "the hot line's reply is whole" true (cached c hot ~id:1 = Some hot_reply);
  check "the oldest flood line is gone" true (cached c flood.(0) ~id:1 = None);
  check (Printf.sprintf "add and find allocate nothing (%.0f words)" words) true
    (words = 0.)

(* ------------------------------------------------------------------ *)
(* daemon with the reply cache                                         *)
(* ------------------------------------------------------------------ *)

let overlong_line = String.make ((1 lsl 20) + 1) 'x'

(* The per-line oracle: what each line's reply is when it is parsed,
   evaluated and rendered on its own, with no cache; and how many lines
   one worker answers from its cache — a request line seen before as a
   request whose evaluation completed (no line here is evicted). *)
let oracle ?max_facts snap lines =
  let view = Engine.Snapshot.view snap in
  let saturated = Engine.Snapshot.saturated snap in
  let stored = Hashtbl.create 16 and hits = ref 0 in
  let replies =
    List.concat
      (List.mapi
         (fun i line ->
           let id = i + 1 in
           if String.length line > 1 lsl 20 then
             [ Server.Protocol.render_error ~id
                 "request line longer than 1048576 bytes" ]
           else
             match Server.Protocol.parse_line ~id line with
             | Server.Protocol.Empty -> []
             | Server.Protocol.Malformed m ->
                 [ Server.Protocol.render_error ~id m ]
             | Server.Protocol.Request r ->
                 let budget =
                   Option.map (fun n -> Obs.Budget.create ~max_facts:n ()) max_facts
                 in
                 let res =
                   Engine.Snapshot.ucq_i ?budget view r.Server.Protocol.query
                 in
                 if Hashtbl.mem stored line then incr hits
                 else if Engine.Enumerate.ioutcome res = Obs.Budget.Complete then
                   Hashtbl.replace stored line ();
                 [ Server.Protocol.render_ok r ~saturated res ])
         lines)
  in
  (List.sort compare replies, !hits)

(* a pool of request lines (respellings, answer-free and scan queries, a
   count, a comment, a blank, malformed lines); a stream draws from it
   with a skew, so most lines repeat *)
let pool =
  [|
    "answers q(X) :- prof(X).";
    "answers  q(X) :- prof(X).";
    "count q(X) :- faculty(X).";
    "answers q(C) :- teaches(ada,C).";
    "answers q(X,C) :- teaches(X,C), course(C).";
    "count q(S) :- student(S). q(S) :- prof(S).";
    "answers q(X) :- missing(X).";
    "answers q() :- prof(ada).";
    "answers q(X) :- student(X), prof(X).";
    "% a comment";
    "";
    "frobnicate q(X) :- prof(X).";
    "answers q(X :- prof(X).";
    "answers prof(ada).";
  |]

let stream seed n =
  let rng = Random.State.make [| seed |] in
  List.init n (fun i ->
      if i mod 97 = 50 then overlong_line
      else
        (* min of two draws: low indices dominate *)
        let k = Array.length pool in
        pool.(min (Random.State.int rng k) (Random.State.int rng k)))

let sorted_replies t = List.sort compare (transcript_lines t)

let test_cache_matches_oracle () =
  let full = snapshot program and truncated = snapshot ~max_level:1 program in
  check_int "the pool's lines take distinct slots" (Array.length pool)
    (List.length
       (List.sort_uniq compare (Array.to_list (Array.map Rc.slot pool))));
  List.iter
    (fun (what, snap, max_facts) ->
      List.iter
        (fun seed ->
          let lines = stream seed 400 in
          let expected, hits = oracle ?max_facts snap lines in
          List.iter
            (fun workers ->
              let summary, t = run_daemon ~workers ?max_facts snap lines in
              Alcotest.(check (list string))
                (Fmt.str "%s, seed %d, workers %d = per-line oracle" what seed
                   workers)
                expected (sorted_replies t);
              let status w =
                List.length
                  (List.filter
                     (fun l -> List.nth (String.split_on_char ' ' l) 1 = w)
                     expected)
              in
              check "the summary classifies as the oracle's replies read" true
                (summary.Server.Daemon.ok = status "ok"
                && summary.Server.Daemon.partial = status "partial"
                && summary.Server.Daemon.errors = status "error");
              if workers = 1 then
                check_int (Fmt.str "%s, seed %d: hits" what seed) hits
                  summary.Server.Daemon.reply_hits)
            [ 1; 4 ])
        [ 1; 2; 3 ])
    [
      ("saturated", full, None);
      ("budget-facts 2", full, Some 2);
      ("unsaturated", truncated, None);
    ]

let test_cache_bypass () =
  let snap = snapshot program in
  let lines = List.init 5 (fun _ -> "count q(X) :- faculty(X).") in
  let hits ?fault_plan () =
    let summary, t = run_daemon ?fault_plan snap lines in
    check "all answered ok" true
      (sorted_replies t
      = List.init 5 (fun i -> Fmt.str "%d ok count=5" (i + 1)));
    summary.Server.Daemon.reply_hits
  in
  check_int "repeats hit with no plan" 4 (hits ());
  check_int "an armed fault plan gives no hits" 0
    (hits ~fault_plan:[ Resil.Fault.At_point ("test.never", 1) ] ());
  (* a hook that faults the first evaluation once, then removes itself:
     after it, no probe is armed but the quarantine table holds a key *)
  Obs.Probe.install (fun _ ->
      Obs.Probe.clear ();
      failwith "poison");
  let summary, t =
    Fun.protect ~finally:Obs.Probe.clear (fun () ->
        run_daemon snap ("answers q(X) :- prof(X)." :: lines))
  in
  check "the first request faulted" true (contains t "1 error");
  check_int "a non-empty quarantine gives no hits" 0
    summary.Server.Daemon.reply_hits;
  check_int "the rest served" 5 summary.Server.Daemon.ok

let test_cache_flood_distinct () =
  (* every line distinct: all misses, the transcript is the oracle's and
     the caches keep their fixed size *)
  let snap = snapshot program in
  let lines =
    List.init 3000 (fun i -> Fmt.str "answers q(C%d) :- teaches(ada,C%d)." i i)
  in
  let expected, _ = oracle snap lines in
  List.iter
    (fun workers ->
      let summary, t = run_daemon ~workers snap lines in
      Alcotest.(check (list string))
        (Fmt.str "workers %d = per-line oracle" workers)
        expected (sorted_replies t);
      check_int (Fmt.str "no hits at workers %d" workers) 0
        summary.Server.Daemon.reply_hits)
    [ 1; 4 ]

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
      ( "cache",
        [
          Alcotest.test_case "round trip" `Quick test_cache_roundtrip;
          Alcotest.test_case "the ring wraps" `Quick test_cache_ring_wraps;
          Alcotest.test_case "the oldest entry is evicted" `Quick
            test_cache_evicts_oldest;
          Alcotest.test_case "an overwritten entry misses" `Quick
            test_cache_overwritten_is_gone;
          Alcotest.test_case "a slot collision is a miss" `Quick
            test_cache_slot_collision;
          Alcotest.test_case "a large entry is refused" `Quick
            test_cache_refuses_large;
          Alcotest.test_case "a flood keeps the fixed size" `Quick
            test_cache_fixed_size;
          Alcotest.test_case "transcripts equal the per-line oracle" `Quick
            test_cache_matches_oracle;
          Alcotest.test_case "fault plans and quarantine bypass it" `Quick
            test_cache_bypass;
          Alcotest.test_case "distinct lines only miss" `Quick
            test_cache_flood_distinct;
          Alcotest.test_case "random streams match a model" `Quick
            test_cache_model;
          Alcotest.test_case "a hot line outlives a flood" `Quick
            test_cache_hot_line_survives;
        ] );
    ]
