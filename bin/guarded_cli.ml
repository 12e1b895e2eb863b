(* The `guarded` command-line tool: chase, evaluate, classify, rewrite,
   decide UCQk-equivalence, and run the p-Clique reduction, over programs
   in the surface syntax (see lib/syntax/parser.ml). *)

open Relational
open Guarded_core
open Cmdliner

let read_program path =
  try Ok (Syntax.Parser.parse_file path) with
  | Syntax.Lexer.Error (msg, l, c) ->
      Error (Fmt.str "%s:%d:%d: %s" path l c msg)
  | Syntax.Parser.Error (msg, l, c) ->
      Error (Fmt.str "%s:%d:%d: %s" path l c msg)
  | Sys_error e -> Error e

(* Exit codes: 0 success, 1 runtime fault, 2 usage/input error. A violated
   library precondition ([Invalid_argument]) means the input asked for
   something the library rejects — an input error, reported in one line
   instead of a backtrace. *)
let guard f =
  try f () with
  | Invalid_argument msg ->
      Fmt.epr "error: %s@." msg;
      2
  | Sys_error msg ->
      Fmt.epr "error: %s@." msg;
      1
  | e ->
      (* an unsupervised injected fault is a simulated crash *)
      Fmt.epr "error: %s@." (Resil.Fault.describe e);
      1

let with_program path f =
  match read_program path with
  | Error e ->
      Fmt.epr "error: %s@." e;
      2
  | Ok p -> guard (fun () -> f p)

let get_query p name =
  match Syntax.Parser.query p name with
  | Some q -> Ok q
  | None ->
      Error
        (Fmt.str "no query named %S (available: %s)" name
           (String.concat ", " (List.map fst p.Syntax.Parser.queries)))

(* common args *)
let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Input program.")

let query_arg =
  Arg.(value & opt string "q" & info [ "query"; "q" ] ~docv:"NAME" ~doc:"Query name (default q).")

let level_arg =
  Arg.(value & opt int 8 & info [ "max-level" ] ~docv:"N" ~doc:"Chase level bound.")

let k_arg = Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Treewidth bound k.")

(* observability args, shared by the run-style commands *)
let stats_arg =
  Arg.(
    value & opt (some string) None
    & info [ "stats" ] ~docv:"FILE"
        ~doc:"Write the run report (outcome, per-level fact counts, counters, span tree) as JSON to $(docv).")

let budget_facts_arg =
  Arg.(
    value & opt (some int) None
    & info [ "budget-facts" ] ~docv:"N"
        ~doc:"Stop the chase gracefully once more than $(docv) facts are materialised.")

let budget_ms_arg =
  Arg.(
    value & opt (some float) None
    & info [ "budget-ms" ] ~docv:"MS"
        ~doc:"Wall-clock budget for the chase, in milliseconds.")

let make_budget facts ms =
  match (facts, ms) with
  | None, None -> None
  | _ -> Some (Obs.Budget.create ?max_facts:facts ?max_ms:ms ())

let report_outcome out =
  match out with
  | Obs.Budget.Complete -> ()
  | Obs.Budget.Partial v -> Fmt.pr "%% partial: %a@." Obs.Budget.pp_violation v

(* ------------------------------------------------------------------ *)
(* chase                                                                *)
(* ------------------------------------------------------------------ *)

(* One saturation engine; the flag stays so scripts that name it keep
   working, and any other value is a usage error. *)
let engine_arg =
  Arg.(
    value & opt (enum [ ("indexed", ()) ]) ()
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:"Saturation engine: $(b,indexed) (semi-naive, the only one).")

let checkpoint_arg =
  Arg.(
    value & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:"Persist a chase checkpoint to $(docv) at every clean pass \
              boundary selected by $(b,--checkpoint-every).")

let checkpoint_every_arg =
  Arg.(
    value & opt int 1
    & info [ "checkpoint-every" ] ~docv:"K"
        ~doc:"Checkpoint every $(docv)th level (default 1; the final \
              boundary always checkpoints).")

let resume_arg =
  Arg.(
    value & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:"Resume the chase from the checkpoint in $(docv) instead of \
              starting from the program's database.")

let retries_arg =
  Arg.(
    value & opt (some int) None
    & info [ "retries" ] ~docv:"R"
        ~doc:"Supervise the run: retry up to $(docv) times, each resuming \
              from the last checkpoint after a capped exponential backoff.")

let fault_plan_arg =
  Arg.(
    value & opt (some string) None
    & info [ "fault-plan" ] ~docv:"SPEC"
        ~doc:"Deterministic fault injection: $(b,none), $(b,hit:N), \
              $(b,point:NAME:N), $(b,ms:X) (comma-separated, one per \
              attempt), or $(b,seed:S)[:$(b,K)].")

(* The parsed --fault-plan ([Fault.none] when absent). A bad spec is an
   input error: it is reported here, naming the spec, and [Error] carries
   the exit code. A result, not a continuation: a closure around the
   command body would keep the parsed program alive through the chase. *)
let fault_plan_of spec =
  match
    Option.fold ~none:(Ok Resil.Fault.none) ~some:Resil.Fault.parse spec
  with
  | Ok _ as plan -> plan
  | Error msg ->
      Fmt.epr "error: %s@." msg;
      Error 2

(* Shared tail of every successful chase: summary comments, the instance,
   the stats report. *)
let print_chase_result ~max_level ~stats ?(notes = []) r =
  Fmt.pr "%% chase %s (max level %d)@."
    (if Tgds.Chase.saturated r then "saturated" else "truncated")
    max_level;
  report_outcome (Tgds.Chase.outcome r);
  List.iter (fun n -> Fmt.pr "%% %s@." n) notes;
  (match Tgds.Chase.engine_result r with
  | Some er ->
      Fmt.pr "%% %d triggers fired, %d index probes@."
        er.Engine.Saturate.triggers_fired
        (Engine.Index.probes (Tgds.Chase.index r))
  | None -> ());
  Instance.iter (fun f -> Fmt.pr "%a.@." Fact.pp f) (Tgds.Chase.instance r);
  (match stats with
  | Some path -> Obs.Report.write path (Tgds.Chase.report r)
  | None -> ());
  0

(* The supervised path: any of --checkpoint/--resume/--retries/--fault-plan
   routes here; a bare `chase` keeps the direct, supervisor-free path. *)
let resilient_chase ~max_level ~stats ~budget ~checkpoint ~ck_every
    ~resume ~retries ~fault_plan sigma facts =
  match fault_plan_of fault_plan with
  | Error code -> code
  | Ok fault_plan -> (
      let resume_from =
        match resume with
        | None -> Ok None
        | Some path -> Result.map Option.some (Resil.Checkpoint.load path)
      in
      match resume_from with
      | Error e ->
          Fmt.epr "error: %s@." (Resil.Checkpoint.error_message e);
          (* unreadable checkpoint = input error; corrupt = runtime fault *)
          (match e with Resil.Checkpoint.Io _ -> 2 | Resil.Checkpoint.Corrupt _ -> 1)
      | Ok resume_from -> (
          (* the supervisor takes a single budget: fold the CLI's level
             bound in, as [Chase.run ~max_level] would *)
          let budget =
            let levels = Obs.Budget.create ~max_levels:max_level () in
            match budget with
            | None -> levels
            | Some b -> Obs.Budget.meet levels b
          in
          match
            Resil.Supervisor.run ~budget ~checkpoint_every:ck_every
              ?checkpoint_path:checkpoint ?resume_from ?retries ~fault_plan
              sigma facts
          with
          | Resil.Supervisor.Completed r ->
              print_chase_result ~max_level ~stats r
          | Resil.Supervisor.Recovered (r, log) ->
              print_chase_result ~max_level ~stats
                ~notes:
                  [
                    Fmt.str "recovered after %d failed attempt(s)"
                      (List.length log);
                  ]
                r
          | Resil.Supervisor.Failed d ->
              Fmt.epr "error: chase failed after %d attempt(s): %s@."
                (List.length d.attempts) d.Resil.Supervisor.message;
              1))

let chase_cmd =
  let run file max_level () stats budget_facts budget_ms checkpoint
      ck_every resume retries fault_plan =
    with_program file (fun p ->
        let budget = make_budget budget_facts budget_ms in
        let sigma = p.Syntax.Parser.tgds and facts = p.Syntax.Parser.facts in
        let resilient =
          checkpoint <> None || resume <> None || retries <> None
          || fault_plan <> None
        in
        if resilient then
          resilient_chase ~max_level ~stats ~budget ~checkpoint
            ~ck_every ~resume ~retries ~fault_plan sigma facts
        else
          let r =
            Tgds.Chase.run_store ~max_level ?budget sigma
              (Engine.Index.of_facts facts)
          in
          print_chase_result ~max_level ~stats r)
  in
  Cmd.v
    (Cmd.info "chase" ~doc:"Run the level-bounded oblivious chase and print the result.")
    Term.(
      const run $ file_arg $ level_arg $ engine_arg $ stats_arg
      $ budget_facts_arg $ budget_ms_arg $ checkpoint_arg
      $ checkpoint_every_arg $ resume_arg $ retries_arg $ fault_plan_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                                *)
(* ------------------------------------------------------------------ *)

(* Apply a mutation log against a maintained store (lib/incr): chase the
   program's database once (or resume a maintained checkpoint / recover
   a WAL directory), then repair incrementally per mutation. Output: one
   `%` comment per mutation with the repair counts, a summary, the final
   instance, and — like `chase` — optional --stats / --checkpoint
   artifacts.

   The loop runs a Resil.Serve_supervisor session. With
   --wal/--recover/--retries/--fault-plan it is supervised: every
   mutation is appended and fsync'd to the WAL before it applies, each
   apply runs under the degradation ladder (repair → re-derive →
   re-chase, then quarantine), and the session re-anchors the WAL after
   every climb. A bare `serve` keeps the direct path. *)
let serve_cmd =
  (* Read the mutation log line by line so a malformed entry is reported
     with its line number and offending content; --strict-log=false
     skips such lines (counted in serve.rejected_lines) instead of
     aborting. Mutation statements are line-oriented. *)
  let read_log ~strict path =
    match
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let lines = ref [] in
          (try
             while true do
               lines := input_line ic :: !lines
             done
           with End_of_file -> ());
          List.rev !lines)
    with
    | exception Sys_error e -> Error (`Io e)
    | lines ->
        let muts = ref [] and rejected = ref [] and bad = ref None in
        List.iteri
          (fun i line ->
            if !bad = None then
              let lineno = i + 1 in
              match Syntax.Parser.parse_mutations line with
              | ms -> muts := List.rev_append ms !muts
              | exception
                  ( Syntax.Lexer.Error (msg, _, c)
                  | Syntax.Parser.Error (msg, _, c) ) ->
                  if strict then bad := Some (lineno, c, msg, line)
                  else rejected := (lineno, line) :: !rejected)
          lines;
        (match !bad with
        | Some b -> Error (`Parse b)
        | None -> Ok (List.rev !muts, List.rev !rejected))
  in
  let run file log max_level () stats checkpoint ck_every resume wal_dir
      recover retries fault_plan strict_log =
    with_program file (fun p ->
        match fault_plan_of fault_plan with
        | Error code -> code
        | Ok _ when recover && wal_dir = None ->
            Fmt.epr "error: --recover requires --wal DIR@.";
            2
        | Ok plan -> (
            match read_log ~strict:strict_log log with
            | Error (`Io e) ->
                Fmt.epr "error: %s@." e;
                2
            | Error (`Parse (l, c, msg, content)) ->
                Fmt.epr "error: %s:%d:%d: %s (offending line: %s)@." log l c msg
                  content;
                2
            | Ok (muts, rejected) -> (
                List.iter
                  (fun (l, content) ->
                    Fmt.epr
                      "%% warning: %s:%d: skipping malformed log line: %s@." log
                      l content)
                  rejected;
                let muts = Array.of_list muts in
                let n = Array.length muts in
                let sigma = p.Syntax.Parser.tgds in
                let span = Obs.Span.root "serve" in
                let module Sup = Resil.Serve_supervisor in
                (* the session's options: supervised iff --wal, --retries or
                   --fault-plan is given; only --stats reads the per-mutation
                   spans, which would otherwise grow the tree by a subtree
                   per mutation *)
                let fault_plan = Option.map (fun _ -> plan) fault_plan in
                let obs = Option.map (fun _ -> span) stats in
                let op_of = function
                  | Syntax.Parser.Add f -> Incr.Insert f
                  | Syntax.Parser.Del f -> Incr.Delete f
                in
                let op_eq a b =
                  match (a, b) with
                  | Incr.Insert f, Incr.Insert g
                  | Incr.Delete f, Incr.Delete g ->
                      Fact.compare f g = 0
                  | _ -> false
                in
                let op_str = function
                  | Incr.Insert f -> Fmt.str "+%a" Fact.pp f
                  | Incr.Delete f -> Fmt.str "-%a" Fact.pp f
                in
                let serve_loop session =
                  Fmt.pr "%% serve: store saturated, %d facts@."
                    (Incr.size (Sup.store session));
                  let inserts = ref 0 and deletes = ref 0 and noops = ref 0 in
                  (* one effect line per mutation, rendered into a reused
                     buffer and flushed as a whole *)
                  let line = Buffer.create 128 in
                  let add = Buffer.add_string line in
                  let add_int n = add (string_of_int n) in
                  let print_effect op (eff : Incr.effect) =
                    Buffer.clear line;
                    (match op with
                    | Incr.Insert f -> add "% +"; Fact.to_buffer line f
                    | Incr.Delete f -> add "% -"; Fact.to_buffer line f);
                    (match (op, eff.Incr.e_noop) with
                    | Incr.Insert _, true ->
                        incr noops;
                        add ": no-op (already in the base)"
                    | Incr.Delete _, true ->
                        incr noops;
                        add ": no-op (not in the base)"
                    | Incr.Insert _, false ->
                        incr inserts;
                        add ": ";
                        add_int eff.Incr.e_repaired;
                        add " facts added"
                    | Incr.Delete _, false ->
                        incr deletes;
                        add ": overdeleted ";
                        add_int eff.Incr.e_overdeleted;
                        add ", rederived ";
                        add_int eff.Incr.e_rederived;
                        add ", repaired ";
                        add_int eff.Incr.e_repaired;
                        add ", deleted ";
                        add_int eff.Incr.e_deleted);
                    Buffer.add_char line '\n';
                    Buffer.output_buffer stdout line;
                    flush stdout
                  in
                  let pp_step show (s : Sup.step) =
                    Sup.rung_to_string s.st_rung ^ ":"
                    ^ match s.st_outcome with `Ok -> "ok" | `Fault f -> show f
                  in
                  (* the typed transcript, one entry per attempt: a ladder
                     line, and a span for the stats tree *)
                  let note_ladder seq steps =
                    Fmt.pr "%% ladder: %s@."
                      (String.concat " -> "
                         (List.map (pp_step (fun _ -> "fault")) steps));
                    let lspan = Obs.Span.enter span "ladder" in
                    Obs.Span.set lspan "mutation" (Obs.Json.Int seq);
                    Obs.Span.set lspan "transcript"
                      (Obs.Json.String
                         (String.concat "; "
                            (List.map
                               (fun (s : Sup.step) ->
                                 Fmt.str "%d:%s" s.st_attempt
                                   (pp_step Fun.id s))
                               steps)));
                    Obs.Span.exit lspan
                  in
                  Fun.protect
                    ~finally:(fun () -> Sup.close session)
                    (fun () ->
                      for seq = Sup.next_seq session to n do
                        let op = op_of muts.(seq - 1) in
                        match Sup.step session op with
                        | Sup.Applied (eff, steps) ->
                            print_effect op eff;
                            if List.compare_length_with steps 1 > 0 then
                              note_ladder seq steps
                        | Sup.Quarantined (steps, msg) ->
                            note_ladder seq steps;
                            Fmt.pr "%% %s: %s@." (op_str op) msg;
                            Fmt.epr "error: mutation %d (%s) %s@." seq
                              (op_str op) msg
                        | exception Sup.Fatal msg ->
                            raise (Invalid_argument msg)
                      done);
                  let store = Sup.store session in
                  let quarantined = Sup.quarantined session in
                  Fmt.pr
                    "%% serve: %d mutations applied (%d inserts, %d deletes, \
                     %d no-ops), %d facts@."
                    n !inserts !deletes !noops (Incr.size store);
                  if quarantined > 0 then
                    Fmt.pr "%% serve: %d mutation(s) quarantined@." quarantined;
                  (* set-style so a recovered run (whose image may already
                     carry the counter) converges to the same value *)
                  if rejected <> [] then begin
                    let c =
                      Obs.Metrics.counter (Incr.metrics store)
                        "serve.rejected_lines"
                    in
                    Obs.Metrics.add c
                      (List.length rejected - Obs.Metrics.value c)
                  end;
                  Instance.iter
                    (fun f -> Fmt.pr "%a.@." Fact.pp f)
                    (Incr.instance store);
                  (match checkpoint with
                  | Some path ->
                      Resil.Checkpoint.save path (Incr.checkpoint store)
                  | None -> ());
                  Obs.Span.exit span;
                  (match stats with
                  | Some path ->
                      let rep = Incr.report ~name:"serve" ~span store in
                      Obs.Report.add_field rep "mutations" (Obs.Json.Int n);
                      if quarantined > 0 then
                        Obs.Report.add_field rep "quarantined"
                          (Obs.Json.Int quarantined);
                      if Sup.degradations session > 0 then
                        Obs.Report.add_field rep "degradations"
                          (Obs.Json.Int (Sup.degradations session));
                      Obs.Report.write path rep
                  | None -> ());
                  if quarantined > 0 then 1 else 0
                in
                let session =
                  match wal_dir with
                  | Some dir when recover && not (Resil.Wal.is_empty ~dir) -> (
                      match Resil.Wal.recover ~dir with
                      | Error msg -> Error (`Fault msg)
                      | Ok r ->
                          let ok (s, op) =
                            s >= 1 && s <= n && op_eq (op_of muts.(s - 1)) op
                          in
                          if
                            r.Resil.Wal.rec_last_seq > n
                            || not (List.for_all ok r.Resil.Wal.rec_ops)
                          then
                            Error
                              (`Input
                                 (Fmt.str
                                    "WAL %s does not match the mutation log %s"
                                    dir log))
                          else begin
                            let rspan = Obs.Span.enter span "recover" in
                            let session =
                              Sup.resume ?retries ?obs
                                ~checkpoint_every:ck_every ?fault_plan ~dir
                                sigma r
                            in
                            let replayed = List.length r.Resil.Wal.rec_ops in
                            Obs.Span.set rspan "image_seq"
                              (Obs.Json.Int r.Resil.Wal.rec_image_seq);
                            Obs.Span.set rspan "records_replayed"
                              (Obs.Json.Int replayed);
                            Obs.Span.set rspan "records_truncated"
                              (Obs.Json.Int r.Resil.Wal.rec_truncated);
                            if r.Resil.Wal.rec_skipped_images > 0 then
                              Obs.Span.set rspan "skipped_images"
                                (Obs.Json.Int r.Resil.Wal.rec_skipped_images);
                            if r.Resil.Wal.rec_quarantined <> [] then
                              Obs.Span.set rspan "quarantined"
                                (Obs.Json.Int
                                   (List.length r.Resil.Wal.rec_quarantined));
                            Obs.Span.exit rspan;
                            Fmt.pr
                              "%% recover: image at seq %d, %d record(s) \
                               replayed, %d truncated@."
                              r.Resil.Wal.rec_image_seq replayed
                              r.Resil.Wal.rec_truncated;
                            Ok session
                          end)
                  | _ -> (
                      let fresh =
                        match resume with
                        | None ->
                            Ok
                              (Incr.of_store ~max_level ~obs:span sigma
                                 (Engine.Index.of_facts p.Syntax.Parser.facts))
                        | Some path -> (
                            match Resil.Checkpoint.load path with
                            | Ok ck ->
                                Ok (Incr.of_checkpoint ~obs:span sigma ck)
                            | Error (Resil.Checkpoint.Io _ as e) ->
                                Error
                                  (`Input (Resil.Checkpoint.error_message e))
                            | Error (Resil.Checkpoint.Corrupt _ as e) ->
                                Error
                                  (`Fault (Resil.Checkpoint.error_message e)))
                      in
                      match fresh with
                      | Error _ as e -> e
                      | Ok store ->
                          if not (Incr.saturated store) then Error `Unsat
                          else begin
                            if recover then
                              Fmt.pr
                                "%% recover: empty WAL — starting fresh@.";
                            Ok
                              (Sup.start ?retries ?obs
                                 ~checkpoint_every:ck_every ?fault_plan
                                 ?wal:wal_dir sigma store)
                          end)
                in
                match session with
                | Error (`Input msg) ->
                    Fmt.epr "error: %s@." msg;
                    2
                | Error (`Fault msg) ->
                    Fmt.epr "error: %s@." msg;
                    1
                | Error `Unsat ->
                    Fmt.epr
                      "error: store did not saturate within %d levels — \
                       cannot maintain a truncated chase@."
                      max_level;
                    1
                | Ok session -> serve_loop session)))
  in
  let log_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:"Mutation log: ground $(b,+fact(...).) / $(b,-fact(...).) \
                statements applied in order.")
  in
  let wal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"DIR"
          ~doc:"Write-ahead log: every mutation is appended and fsync'd to \
                $(docv) before it applies, so a killed run recovers with \
                $(b,--recover). $(b,--checkpoint-every) sets the image \
                rotation cadence.")
  in
  let recover_arg =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:"Recover the store from the $(b,--wal) directory (newest \
                intact image plus WAL tail replay, truncating a torn final \
                record), then continue the mutation log where it left off. \
                An empty WAL directory falls back to a fresh start.")
  in
  let serve_retries_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ] ~docv:"R"
          ~doc:"Supervise each mutation: $(docv) total attempts on the \
                degradation ladder (incremental repair, then bounded \
                re-derive, then full re-chase) before the mutation is \
                quarantined (default 3).")
  in
  let serve_ck_every_arg =
    Arg.(
      value & opt int 25
      & info [ "checkpoint-every" ] ~docv:"K"
          ~doc:"Rotate the WAL (write a fresh store image, start a new \
                segment, prune the old ones) every $(docv) applied \
                mutations (default 25).")
  in
  let strict_log_arg =
    Arg.(
      value & opt bool true
      & info [ "strict-log" ] ~docv:"BOOL"
          ~doc:"Abort on a malformed mutation-log line (default). \
                $(b,--strict-log=false) skips such lines with a warning and \
                counts them in the $(b,serve.rejected_lines) counter.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Maintain a chased store under a base-fact mutation log \
             (incremental insert/delete repair, no re-chase), optionally \
             write-ahead logged and supervised.")
    Term.(
      const run $ file_arg $ log_arg $ level_arg $ engine_arg $ stats_arg
      $ checkpoint_arg $ serve_ck_every_arg $ resume_arg $ wal_arg
      $ recover_arg $ serve_retries_arg $ fault_plan_arg $ strict_log_arg)

(* ------------------------------------------------------------------ *)
(* server                                                               *)
(* ------------------------------------------------------------------ *)

(* Daemon mode: saturate once, freeze the store behind an immutable
   snapshot, then serve `answers`/`count` request lines from stdin
   through a pool of worker domains (Server.run). Each reply is one
   line carrying the request id, so a transcript sorted by id is
   byte-identical under any --workers value. SIGTERM drains: in-flight
   requests complete, further input is ignored, and a clean drain exits
   0; request errors or quarantined queries exit 1. *)
let server_cmd =
  let run file max_level () workers stats budget_facts budget_ms
      fault_plan =
    with_program file (fun p ->
        match fault_plan_of fault_plan with
        | Error code -> code
        | Ok _ when workers < 1 ->
            Fmt.epr "error: --workers must be >= 1@.";
            2
        | Ok plan
          when plan <> [] && workers > 1 && not (Resil.Fault.stateless plan) ->
            Fmt.epr
              "error: a counted --fault-plan requires --workers 1 (the probe \
               hook is process-global; only point:NAME:* plans are \
               race-free)@.";
            2
        | Ok plan ->
            let sigma = p.Syntax.Parser.tgds in
            let idx = Engine.Index.of_facts p.Syntax.Parser.facts in
            (* before the chase interns a constant of Σ or a null, the
               store's n0 symbols are dom(D): the certain-answer
               universe. The chase only adds ids after them, so the set
               is built after it, off the chase's memory peak *)
            let n0 = Engine.Symtab.size (Engine.Index.symtab idx) in
            let span = Obs.Span.root "server" in
            let r =
              Obs.Span.timed (Some span) "saturate" (fun () ->
                  Tgds.Chase.run_store ~max_level sigma idx)
            in
            let saturated = Tgds.Chase.saturated r in
            let idx = Tgds.Chase.index r in
            let universe = Engine.Index.symbols ~below:n0 idx in
            let snap = Engine.Snapshot.freeze ~saturated ~universe idx in
            Fmt.pr "%% server: store %s, %d facts (workers %d)@."
              (if saturated then "saturated" else "truncated — replies partial")
              (Engine.Snapshot.size snap) workers;
            let report =
              match stats with
              | None -> None
              | Some _ -> Some (Obs.Report.create ~span "server")
            in
            let stop = ref false in
            let previous =
              Sys.signal Sys.sigterm
                (Sys.Signal_handle (fun _ -> stop := true))
            in
            let summary =
              Fun.protect
                ~finally:(fun () -> Sys.set_signal Sys.sigterm previous)
                (fun () ->
                  Server.Daemon.run ?report ~stop
                    {
                      Server.Daemon.workers;
                      max_facts = budget_facts;
                      max_ms = budget_ms;
                      fault_plan = plan;
                    }
                    snap stdin stdout)
            in
            Fmt.pr
              "%% server: %d request(s) served (%d ok, %d partial, %d \
               error(s), %d quarantined)@."
              summary.Server.Daemon.served summary.Server.Daemon.ok
              summary.Server.Daemon.partial summary.Server.Daemon.errors
              summary.Server.Daemon.quarantined;
            if summary.Server.Daemon.drained then
              Fmt.pr "%% server: drained on signal@.";
            Obs.Span.exit span;
            (match (stats, report) with
            | Some path, Some rep -> Obs.Report.write path rep
            | _ -> ());
            if
              summary.Server.Daemon.errors > 0
              || summary.Server.Daemon.quarantined > 0
            then 1
            else 0)
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains serving requests from the shared snapshot \
                (default 1). Reply transcripts sorted by request id are \
                identical for every value.")
  in
  let req_budget_facts_arg =
    Arg.(
      value & opt (some int) None
      & info [ "budget-facts" ] ~docv:"N"
          ~doc:"Per-request admission control: cap each reply at $(docv) \
                answers (excess requests answer $(b,partial)).")
  in
  let req_budget_ms_arg =
    Arg.(
      value & opt (some float) None
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:"Per-request deadline, in milliseconds: a request over \
                budget answers $(b,partial) with the sound prefix \
                enumerated so far.")
  in
  Cmd.v
    (Cmd.info "server"
       ~doc:"Saturate once, then serve concurrent $(b,answers)/$(b,count) \
             request lines from stdin over the frozen store; one reply \
             line per request, tagged with the request id. A request line \
             seen before is answered from its worker's fixed 512 KiB reply \
             cache, byte-identical to evaluating it again.")
    Term.(
      const run $ file_arg $ level_arg $ engine_arg $ workers_arg $ stats_arg
      $ req_budget_facts_arg $ req_budget_ms_arg $ fault_plan_arg)

(* ------------------------------------------------------------------ *)
(* classify                                                             *)
(* ------------------------------------------------------------------ *)

let classify_cmd =
  let run file =
    with_program file (fun p ->
        let sigma = p.Syntax.Parser.tgds in
        let module T = Tgds.Tgd in
        Fmt.pr "TGDs: %d@." (List.length sigma);
        Fmt.pr "linear (L):           %b@." (T.all_linear sigma);
        Fmt.pr "guarded (G):          %b@." (T.all_guarded sigma);
        Fmt.pr "frontier-guarded (FG): %b@." (T.all_frontier_guarded sigma);
        Fmt.pr "full (no existentials): %b@." (T.all_full sigma);
        Fmt.pr "max head atoms (m):    %d@." (T.max_head_size sigma);
        Fmt.pr "schema arity (r):      %d@." (Schema.ar (T.schema_of_set sigma));
        0)
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Report the syntactic TGD classes of the program's rules.")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* eval (open world) / cqs-eval (closed world)                          *)
(* ------------------------------------------------------------------ *)

let pp_tuple ppf t = Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ",") Relational.Term.pp_const) t

let eval_cmd =
  let run file qname max_level fpt stats budget_facts budget_ms =
    with_program file (fun p ->
        match get_query p qname with
        | Error e ->
            Fmt.epr "error: %s@." e;
            2
        | Ok q ->
            let omq = Omq.full_data_schema ~ontology:p.Syntax.Parser.tgds ~query:q in
            let db = Syntax.Parser.database p in
            let budget = make_budget budget_facts budget_ms in
            let span = Obs.Span.root "eval" in
            let exact =
              if Ucq.arity q = 0 then begin
                let v =
                  if fpt then
                    Omq_eval.certain_fpt ~max_level ?budget ~obs:span omq db []
                  else Omq_eval.certain ~max_level ?budget ~obs:span omq db []
                in
                Fmt.pr "%s%s@."
                  (if v.Omq_eval.holds then "true" else "false")
                  (if v.Omq_eval.exact then "" else " (bounded — not exact)");
                v.Omq_eval.exact
              end
              else begin
                let r =
                  Omq_eval.answer_set ~fpt ~max_level ?budget ~obs:span omq db
                in
                List.iter (fun t -> Fmt.pr "%a@." pp_tuple t) r.Omq_eval.tuples;
                if not r.Omq_eval.exact then
                  Fmt.pr "%% bounded chase — possibly incomplete@.";
                r.Omq_eval.exact
              end
            in
            Obs.Span.exit span;
            (match stats with
            | Some path ->
                let rep = Obs.Report.create ~span "eval" in
                Obs.Report.add_field rep "exact" (Obs.Json.Bool exact);
                Obs.Report.write path rep
            | None -> ());
            0)
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Open-world certain answers (ontology-mediated querying).")
    Term.(
      const run $ file_arg $ query_arg $ level_arg
      $ Arg.(value & flag & info [ "fpt" ] ~doc:"Use the linearization-based FPT engine (guarded only).")
      $ stats_arg $ budget_facts_arg $ budget_ms_arg)

(* `answers` — the streaming enumerator (Engine.Enumerate) behind
   Omq_eval.answer_set. Same knobs as `eval` plus `--engine`; answer sets
   print in canonical sorted order. *)
let answers_cmd =
  let run file qname max_level fpt () stats budget_facts budget_ms =
    with_program file (fun p ->
        match get_query p qname with
        | Error e ->
            Fmt.epr "error: %s@." e;
            2
        | Ok q ->
            let omq = Omq.full_data_schema ~ontology:p.Syntax.Parser.tgds ~query:q in
            let db = Syntax.Parser.database p in
            let budget = make_budget budget_facts budget_ms in
            let span = Obs.Span.root "answers" in
            let r =
              Omq_eval.answer_set ~fpt ~max_level ?budget ~obs:span
                omq db
            in
            List.iter (fun t -> Fmt.pr "%a@." pp_tuple t) r.Omq_eval.tuples;
            report_outcome r.Omq_eval.outcome;
            if not r.Omq_eval.exact then
              Fmt.pr "%% bounded run — answer set possibly incomplete@.";
            Obs.Span.exit span;
            (match stats with
            | Some path ->
                let rep = Obs.Report.create ~span "answers" in
                Obs.Report.add_field rep "answers"
                  (Obs.Json.Int (List.length r.Omq_eval.tuples));
                Obs.Report.add_field rep "exact" (Obs.Json.Bool r.Omq_eval.exact);
                Obs.Report.write path rep
            | None -> ());
            0)
  in
  Cmd.v
    (Cmd.info "answers"
       ~doc:"Enumerate the open-world certain answers (output-sensitive: \
             walks index posting lists instead of testing the \
             |adom|^arity cross product).")
    Term.(
      const run $ file_arg $ query_arg $ level_arg
      $ Arg.(value & flag & info [ "fpt" ] ~doc:"Use the linearization-based FPT pipeline (guarded only).")
      $ engine_arg $ stats_arg $ budget_facts_arg $ budget_ms_arg)

let cqs_eval_cmd =
  let run file qname optimize stats =
    with_program file (fun p ->
        match get_query p qname with
        | Error e ->
            Fmt.epr "error: %s@." e;
            2
        | Ok q ->
            let s = Cqs.make ~constraints:p.Syntax.Parser.tgds ~query:q in
            let db = Syntax.Parser.database p in
            if not (Cqs.admissible s db) then
              Fmt.pr "%% warning: database violates the constraints (promise broken)@.";
            let span = Obs.Span.root "cqs-eval" in
            let s = if optimize then Cqs_eval.optimize ~obs:span s else s in
            if optimize then
              Fmt.pr "%% optimized query: %a@." Ucq.pp (Cqs.query s);
            List.iter (fun t -> Fmt.pr "%a@." pp_tuple t)
              (Cqs_eval.answers ~obs:span s db);
            Obs.Span.exit span;
            (match stats with
            | Some path -> Obs.Report.write path (Obs.Report.create ~span "cqs-eval")
            | None -> ());
            0)
  in
  Cmd.v
    (Cmd.info "cqs-eval"
       ~doc:"Closed-world evaluation under integrity constraints.")
    Term.(
      const run $ file_arg $ query_arg
      $ Arg.(value & flag & info [ "optimize" ] ~doc:"Σ-minimize the query first.")
      $ stats_arg)

(* ------------------------------------------------------------------ *)
(* treewidth / core                                                     *)
(* ------------------------------------------------------------------ *)

let treewidth_cmd =
  let run file qname =
    with_program file (fun p ->
        match get_query p qname with
        | Error e ->
            Fmt.epr "error: %s@." e;
            2
        | Ok q ->
            List.iteri
              (fun i cq ->
                Fmt.pr "disjunct %d: treewidth %d, core treewidth %d@." i
                  (Cq.treewidth cq)
                  (Cq_core.semantic_treewidth cq))
              (Ucq.disjuncts q);
            let s = Cqs.make ~constraints:p.Syntax.Parser.tgds ~query:q in
            (match Equivalence.semantic_ucq_treewidth s with
            | Some (k, _) -> Fmt.pr "uniformly UCQ%d-equivalent under Σ@." k
            | None -> Fmt.pr "not uniformly UCQk-equivalent for k ≤ 4@.");
            0)
  in
  Cmd.v
    (Cmd.info "treewidth"
       ~doc:"Treewidths: syntactic, of the core, and modulo the constraints.")
    Term.(const run $ file_arg $ query_arg)

let rewrite_cmd =
  let run file qname =
    with_program file (fun p ->
        match get_query p qname with
        | Error e ->
            Fmt.epr "error: %s@." e;
            2
        | Ok q ->
            if not (Tgds.Tgd.all_linear p.Syntax.Parser.tgds) then begin
              Fmt.epr "error: UCQ rewriting requires linear TGDs@.";
              1
            end
            else begin
              let q', complete = Tgds.Linear_rewrite.rewrite p.Syntax.Parser.tgds q in
              List.iter
                (fun cq -> Fmt.pr "%a@." (Syntax.Pretty.pp_query qname) cq)
                (Ucq.disjuncts q');
              if not complete then Fmt.pr "%% budget exhausted — possibly incomplete@.";
              0
            end)
  in
  Cmd.v
    (Cmd.info "rewrite"
       ~doc:"Perfect UCQ rewriting for linear TGDs (Proposition D.2).")
    Term.(const run $ file_arg $ query_arg)

let equiv_cmd =
  let run file qname k =
    with_program file (fun p ->
        match get_query p qname with
        | Error e ->
            Fmt.epr "error: %s@." e;
            2
        | Ok q ->
            let s = Cqs.make ~constraints:p.Syntax.Parser.tgds ~query:q in
            let verdict, witness = Equivalence.cqs_uniformly_ucqk_equivalent k s in
            Fmt.pr "uniformly UCQ%d-equivalent: %a@." k
              Sigma_containment.pp_verdict verdict;
            (match witness with
            | Some sa -> Fmt.pr "witness: %a@." Ucq.pp (Cqs.query sa)
            | None -> ());
            0)
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:"Decide uniform UCQk-equivalence (the meta problem, Thm 5.6/5.10).")
    Term.(const run $ file_arg $ query_arg $ k_arg)

(* ------------------------------------------------------------------ *)
(* terminates / witness / reduce                                        *)
(* ------------------------------------------------------------------ *)

let terminates_cmd =
  let run file =
    with_program file (fun p ->
        let sigma = p.Syntax.Parser.tgds in
        let module T = Tgds.Termination in
        Fmt.pr "weakly acyclic:            %b@." (T.weakly_acyclic sigma);
        Fmt.pr "termination guaranteed:    %b@."
          (T.terminates_on_all_databases sigma);
        Fmt.pr "dependency edges:@.";
        List.iter (fun e -> Fmt.pr "  %a@." T.pp_edge e) (T.dependency_edges sigma);
        0)
  in
  Cmd.v
    (Cmd.info "terminates"
       ~doc:"Static chase-termination analysis (weak acyclicity).")
    Term.(const run $ file_arg)

let witness_cmd =
  let run file n =
    with_program file (fun p ->
        let sigma = p.Syntax.Parser.tgds in
        if not (Tgds.Tgd.all_guarded sigma) then begin
          Fmt.epr "error: finite witnesses require guarded TGDs@.";
          1
        end
        else begin
          let db = Syntax.Parser.database p in
          let m = Guarded_core.Finite_witness.build ~n sigma db in
          Fmt.pr "%% finite witness M(D,Σ,%d): %d facts, model: %b@." n
            (Instance.size m)
            (Guarded_core.Finite_witness.verify sigma db m);
          Instance.iter (fun f -> Fmt.pr "%a.@." Fact.pp f) m;
          0
        end)
  in
  Cmd.v
    (Cmd.info "witness"
       ~doc:"Build the finite witness M(D,Σ,n) of Theorem 6.7.")
    Term.(
      const run $ file_arg
      $ Arg.(value & opt int 3 & info [ "n" ] ~doc:"Query-variable budget."))

let reduce_cmd =
  let run file qname =
    with_program file (fun p ->
        match get_query p qname with
        | Error e ->
            Fmt.epr "error: %s@." e;
            2
        | Ok q ->
            let sigma = p.Syntax.Parser.tgds in
            if not (Tgds.Tgd.all_guarded sigma) then begin
              Fmt.epr "error: the OMQ→CQS reduction requires guarded TGDs@.";
              1
            end
            else begin
              let omq = Omq.full_data_schema ~ontology:sigma ~query:q in
              let db = Syntax.Parser.database p in
              let d_star = Reductions.omq_to_cqs omq db in
              Fmt.pr "%% D* (%d facts; satisfies Σ: %b)@." (Instance.size d_star)
                (Tgds.Tgd.satisfies_all d_star sigma);
              Instance.iter (fun f -> Fmt.pr "%a.@." Fact.pp f) d_star;
              0
            end)
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:"Proposition 5.8: build D* reducing open-world to closed-world evaluation.")
    Term.(const run $ file_arg $ query_arg)

(* ------------------------------------------------------------------ *)
(* clique reduction demo                                                *)
(* ------------------------------------------------------------------ *)

let clique_cmd =
  let run n k p_edge seed =
    let graph = Workload.random_graph ~n ~p:p_edge ~seed in
    let truth = Qgraph.Graph.has_clique graph k in
    let q = if k <= 2 then Workload.path_cq 2 else Workload.grid_cq k (Grohe.capital_k k) in
    let d = Reductions.constraint_free_instance q in
    (match Reductions.clique_to_cqs d ~graph ~k with
    | None ->
        Fmt.pr "no %d×%d grid minor in the query — cannot carry k=%d@." k
          (Grohe.capital_k k) k
    | Some ci ->
        let via = Reductions.decide_clique ci in
        Fmt.pr "graph: %d vertices, %d edges@." (Qgraph.Graph.num_vertices graph)
          (Qgraph.Graph.num_edges graph);
        Fmt.pr "D* size: %d facts@." (Instance.size ci.Reductions.d_star.Grohe.db);
        Fmt.pr "%d-clique via CQS evaluation: %b (direct search: %b)@." k via truth);
    0
  in
  Cmd.v
    (Cmd.info "clique"
       ~doc:"Decide p-Clique through the Theorem 5.13 reduction to CQS evaluation.")
    Term.(
      const run
      $ Arg.(value & opt int 8 & info [ "n" ] ~doc:"Graph vertices.")
      $ Arg.(value & opt int 3 & info [ "k" ] ~doc:"Clique size.")
      $ Arg.(value & opt float 0.4 & info [ "p" ] ~doc:"Edge probability.")
      $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed."))

let main =
  Cmd.group
    (Cmd.info "guarded" ~version:"1.0.0"
       ~doc:"Open- and closed-world query evaluation under guarded TGDs.")
    [
      chase_cmd; serve_cmd; server_cmd; classify_cmd; eval_cmd; answers_cmd;
      cqs_eval_cmd;
      treewidth_cmd; rewrite_cmd; equiv_cmd; clique_cmd;
      terminates_cmd; witness_cmd; reduce_cmd;
    ]

let () = exit (Cmd.eval' main)
