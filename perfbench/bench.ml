(* The repository benchmark: query-point, query-scan and mutate,
   driven through the built guarded_cli, plus an in-process traced pass
   that attributes the per-operation time to the layers.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --self-check
     bench.exe --describe FILE [--commit REV]

   Run it from the repository root after building (perfbench/run.sh
   does both). The last stdout line is one JSON object: with --trace 0
   the end-to-end metrics of the untraced CLI run, with --trace 1 the
   per-layer metrics of the traced pass. Scratch files (inputs, WAL
   directories, the Chrome trace and the full layer report) live under
   .perfbench/. *)

type workload = Point | Scan | Mutate

let cli_exe = "_build/default/bin/guarded_cli.exe"
let work_root = ".perfbench"
(* CLI processes per query run: set-up is a median over these. A
   mutate run spawns serve over the whole log until its measured
   phases add up to --seconds, at least [min_mutate_rounds] times. *)
let query_rounds = 6
let min_mutate_rounds = 3
let warmup_s = 0.25
(* reference round trips timed before and after each CLI round, and
   at a pause every [pause_every_s] of its measured phase *)
let ref_block = 1000
let pause_block = 200
let pause_every_s = 0.1

let workloads = [ ("query-point", Point); ("query-scan", Scan); ("mutate", Mutate) ]

(* requests run under spans in the traced pass *)
let traced_requests size = function
  | Point -> min 20_000 size.Gen.point_stream
  | Scan -> min 300 size.Gen.scan_stream
  | Mutate -> 0

(* The timed serve runs without --wal: with an fsync per append, a
   shared disk set the figure (three seeds spread 0.19 of the median on
   throughput, against 0.01 without). The traced pass still appends and
   fsyncs every mutation to a WAL, so Wal.append keeps its layer time. *)
let cli_args ~dir = function
  | Point | Scan ->
      [ "server"; Filename.concat dir "program.gd"; "--engine"; "indexed"; "--workers"; "1" ]
  | Mutate ->
      [
        "serve";
        Filename.concat dir "program.gd";
        "--log";
        Filename.concat dir "mutations.log";
        "--engine";
        "indexed";
      ]

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat p n)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* nearest-rank quantile of a sorted array *)
let quantile s q =
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let mean a = if Array.length a = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* ------------------------------------------------------------------ *)
(* one workload run                                                    *)
(* ------------------------------------------------------------------ *)

type metric = string * float * string

type outcome = {
  correct : bool;
  wrong : string option;
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;
  layers : (string * Obs.Json.t) list;  (** the full report *)
  properties : (string * Obs.Json.t) list;
}

(* share of lines repeating an earlier line, and the distinct lines *)
let repeat_share stream =
  let seen = Hashtbl.create 1024 in
  Array.iter (fun l -> Hashtbl.replace seen l ()) stream;
  let n = Array.length stream in
  (float_of_int (n - Hashtbl.length seen) /. float_of_int (max 1 n), Hashtbl.length seen)

(* A CLI round with the reference round trip timed just before and
   just after it. *)
type timed = { round : Cli.round; ref_before_ns : float; ref_after_ns : float }

type window = { w_ops_per_s : float; w_p50_ms : float; w_p90_ms : float; w_ref_ns : float }

(* The reference round trip on an unloaded 2-vCPU VM. Every time is
   scaled by [nominal_ref_ns / reference time measured next to it]: the
   figures read as on a host running at that speed, and most of a slow
   phase of the shared host, which slows the reference too, drops out
   (across a phase that moved the CLI's throughput by 70%, about two
   thirds of it). *)
let nominal_ref_ns = 30_000.

let window_s = 0.1

(* A round's measured phase cut into windows: at the round's pauses,
   each window paired with the reference timed at its two ends; in a
   round too short to pause, every [window_s], all paired with the
   round's brackets. A round shorter than one window is one window. *)
let windows t =
  let r = t.round in
  let n = Array.length r.Cli.lat_ns in
  let acc = ref [] and first = ref 0 and t_start = ref 0. and ref_start = ref t.ref_before_ns in
  let close last ref_end =
    let lat = sorted (Array.sub r.Cli.lat_ns !first (last - !first + 1)) in
    let t_end = r.Cli.done_ns.(last) in
    acc :=
      {
        w_ops_per_s = float_of_int (last - !first + 1) /. ((t_end -. !t_start) /. 1e9);
        w_p50_ms = quantile lat 0.5 /. 1e6;
        w_p90_ms = quantile lat 0.9 /. 1e6;
        w_ref_ns = (!ref_start +. ref_end) /. 2.;
      }
      :: !acc;
    first := last + 1;
    t_start := t_end;
    ref_start := ref_end
  in
  if Array.length r.Cli.cuts > 0 then
    Array.iter (fun (ops, ref_ns) -> if ops > !first then close (ops - 1) ref_ns) r.Cli.cuts
  else begin
    let ref_ns = (t.ref_before_ns +. t.ref_after_ns) /. 2. in
    ref_start := ref_ns;
    for i = 0 to n - 1 do
      if r.Cli.done_ns.(i) -. !t_start >= window_s *. 1e9 then close i ref_ns
    done;
    if !acc = [] && n > 0 then close (n - 1) ref_ns
  end;
  List.rev !acc

(* Medians over all windows of all rounds, scaled to the nominal
   reference speed; set-up is scaled by the mean of the round's two
   brackets. With [~scaled:false], the figures as measured. *)
let end_to_end_of ?(scaled = true) ts =
  let ws = List.concat_map windows ts in
  let k ref_ns = if scaled then nominal_ref_ns /. ref_ns else 1. in
  let med f l = quantile (sorted (Array.of_list (List.map f l))) 0.5 in
  [
    ( "setup_s",
      med (fun t -> t.round.Cli.setup_s *. k ((t.ref_before_ns +. t.ref_after_ns) /. 2.)) ts,
      "s" );
    ("ops_per_s", med (fun w -> w.w_ops_per_s /. k w.w_ref_ns) ws, "1/s");
    ("lat_p50_ms", med (fun w -> w.w_p50_ms *. k w.w_ref_ns) ws, "ms");
    ("lat_p90_ms", med (fun w -> w.w_p90_ms *. k w.w_ref_ns) ws, "ms");
    ("rss_peak_mb", med (fun t -> t.round.Cli.rss_mb) ts, "MB");
  ]

let run_workload ~size ~name ~seed ~seconds ~trace kind =
  Cli.pin_self ();
  let dir = Printf.sprintf "%s/%s-s%d-%d" work_root name seed (Unix.getpid ()) in
  rm_rf dir;
  mkdir_p dir;
  let rf = lazy (Reference.start ()) in
  Fun.protect
    ~finally:(fun () ->
      if Lazy.is_val rf then ignore (Cli.finish (Lazy.force rf));
      rm_rf dir)
    (fun () ->
      let bracket round =
        let ref_before_ns = Reference.block (Lazy.force rf) ref_block in
        let round = round () in
        { round; ref_before_ns; ref_after_ns = Reference.block (Lazy.force rf) ref_block }
      in
      let rng = Random.State.make [| seed |] in
      let prog = Gen.program rng ~universities:size.Gen.universities in
      write_file (Filename.concat dir "program.gd") prog.Gen.text;
      let tr = Trace.create ~enabled:trace in
      let args = cli_args ~dir kind in
      let t_inproc = Trace.now_ns () in
      let common_setup (s : Inproc.setup) =
        [
          ("input_facts", Obs.Json.Int s.Inproc.base_facts);
          ("chased_facts", Obs.Json.Int s.Inproc.chase_facts);
        ]
      in
      let rounds_of, setup, props, counts, detail =
        match kind with
        | Point | Scan ->
            let stream =
              match kind with
              | Point -> Gen.point_stream rng prog size.Gen.point_stream
              | _ -> Gen.scan_stream rng size.Gen.scan_stream
            in
            let traced = traced_requests size kind in
            let q = Inproc.query_pass tr ~program:prog.Gen.text stream ~traced in
            let repeat, distinct = repeat_share stream in
            let ans = sorted (Array.map float_of_int q.Inproc.answers) in
            let c = q.Inproc.counts in
            let per x = float_of_int x /. float_of_int (max 1 c.Inproc.traced) in
            let props =
              common_setup q.Inproc.q_setup
              @ [
                  ("request_lines", Obs.Json.Int (Array.length stream));
                  ("distinct_request_lines", Obs.Json.Int distinct);
                  ("repeat_share", Obs.Json.Float repeat);
                  ("answers_per_reply_p50", Obs.Json.Float (quantile ans 0.5));
                  ("answers_per_reply_p99", Obs.Json.Float (quantile ans 0.99));
                ]
            in
            let counts =
              [
                ("op.index_probes", per c.Inproc.probes, "count");
                ("op.joiner_candidates", per c.Inproc.candidates, "count");
                ("req.answers", per c.Inproc.answers, "count");
                ( "req.candidates_per_answer",
                  float_of_int c.Inproc.candidates /. float_of_int (max 1 c.Inproc.answers),
                  "1" );
                ("req.reply_bytes", per c.Inproc.reply_bytes, "bytes");
                ("req.repeat_share", repeat, "1");
              ]
            in
            let phase_s = seconds /. float_of_int query_rounds in
            let go () =
              bracket (fun () ->
                  Cli.query_round ~exe:cli_exe ~args ~stream ~expected:q.Inproc.expected
                    ~warmup_s ~phase_s ~every_s:pause_every_s ~between:(fun () ->
                      Reference.block (Lazy.force rf) pause_block))
            in
            let run () = List.init query_rounds (fun _ -> go ()) in
            (run, q.Inproc.q_setup, props, counts, [])
        | Mutate ->
            let muts = Gen.mutations rng prog size.Gen.mutations in
            let log = String.concat "\n" (Array.to_list muts) ^ "\n" in
            write_file (Filename.concat dir "mutations.log") log;
            let m =
              Inproc.mutate_pass tr ~program:prog.Gen.text ~log
                ~wal_dir:(Filename.concat dir "inproc-wal")
                ~checkpoint_every:size.Gen.checkpoint_every
            in
            let n = float_of_int (Array.length muts) in
            let props =
              common_setup m.Inproc.m_setup
              @ [
                  ("mutations", Obs.Json.Int (Array.length muts));
                  ("inserts", Obs.Json.Int m.Inproc.inserts);
                  ("deletes", Obs.Json.Int m.Inproc.deletes);
                  ("final_facts", Obs.Json.Int m.Inproc.final_facts);
                  ("checkpoint_every", Obs.Json.Int size.Gen.checkpoint_every);
                  ( "wal",
                    Obs.Json.String
                      "traced pass only: <run dir>/inproc-wal inside the checkout, fsync \
                       per append, image rotation every checkpoint_every mutations; the \
                       timed serve runs without --wal" );
                ]
            in
            let mean_img =
              match m.Inproc.image_bytes with
              | [] -> 0.
              | l -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
            in
            let mean_apply ns k = if k = 0 then 0. else ns /. float_of_int k in
            let counts =
              [
                ("op.index_probes", float_of_int m.Inproc.probes /. n, "count");
                ("op.joiner_candidates", float_of_int m.Inproc.candidates /. n, "count");
                ( "mut.delete_insert_ratio",
                  mean_apply m.Inproc.delete_ns m.Inproc.deletes
                  /. mean_apply m.Inproc.insert_ns m.Inproc.inserts,
                  "1" );
                ("mut.repaired", float_of_int m.Inproc.repaired /. n, "count");
                ("mut.overdeleted", float_of_int m.Inproc.overdeleted /. n, "count");
                ("mut.rederived", float_of_int m.Inproc.rederived /. n, "count");
                ("mut.image_bytes", mean_img, "bytes");
                ( "mut.write_amp",
                  float_of_int m.Inproc.written_bytes /. float_of_int (String.length log),
                  "1" );
              ]
            in
            let go () =
              bracket (fun () ->
                  Cli.mutate_round ~exe:cli_exe ~args ~effects:m.Inproc.effects
                    ~final_facts:m.Inproc.final_facts ~every_s:pause_every_s ~between:(fun () ->
                      Reference.block (Lazy.force rf) pause_block))
            in
            let rec rounds acc measured =
              if List.length acc >= min_mutate_rounds && measured >= seconds then List.rev acc
              else
                let r = go () in
                rounds (r :: acc) (measured +. r.round.Cli.measured_s)
            in
            let run () = rounds [] 0. in
            let detail =
              [
                ("mut.apply_insert_us", mean_apply m.Inproc.insert_ns m.Inproc.inserts /. 1e3, "us");
                ("mut.apply_delete_us", mean_apply m.Inproc.delete_ns m.Inproc.deletes /. 1e3, "us");
              ]
            in
            (run, m.Inproc.m_setup, props, counts, detail)
      in
      let inproc_s = Cli.ns_to_s (Int64.sub (Trace.now_ns ()) t_inproc) in
      Gc.compact ();
      let ts = rounds_of () in
      let rs = List.map (fun t -> t.round) ts in
      let round_json t =
        let r = t.round in
        let lat q = Obs.Json.Float (quantile (sorted r.Cli.lat_ns) q /. 1e6) in
        Obs.Json.Obj
          [
            ("setup_s", Obs.Json.Float r.Cli.setup_s);
            ("ops", Obs.Json.Int r.Cli.ops);
            ("measured_s", Obs.Json.Float r.Cli.measured_s);
            ("lat_p50_ms", lat 0.5);
            ("lat_p90_ms", lat 0.9);
            ("lat_p99_ms", lat 0.99);
            ("rss_peak_mb", Obs.Json.Float r.Cli.rss_mb);
            ("ref_before_us", Obs.Json.Float (t.ref_before_ns /. 1e3));
            ("ref_after_us", Obs.Json.Float (t.ref_after_ns /. 1e3));
          ]
      in
      let end_to_end = end_to_end_of ts in
      let wrong = List.find_map (fun r -> r.Cli.wrong) rs in
      let attempted = List.fold_left (fun a r -> a + r.Cli.attempted) 0 rs in
      let failed = List.fold_left (fun a r -> a + r.Cli.failed) 0 rs in
      let cli_op_us =
        1e-3 *. mean (Array.concat (List.map (fun r -> r.Cli.lat_ns) rs))
      in
      let per_layer, layers =
        Layers.report tr ~kind:(match kind with Mutate -> `Mutate | _ -> `Query)
          ~setup ~cli_op_us ~counts ~detail
      in
      let trace_file = Printf.sprintf "%s/trace-%s-s%d.json" work_root name seed in
      if trace then Trace.write_chrome ~max_req:2000 tr trace_file;
      {
        correct = wrong = None;
        wrong;
        attempted;
        failed;
        end_to_end;
        per_layer;
        layers =
          layers
          @ [
              ("inproc_s", Obs.Json.Float inproc_s);
              ("rounds", Obs.Json.List (List.map round_json ts));
              ( "as_measured",
                Obs.Json.Obj
                  (List.map (fun (n, v, _) -> (n, Obs.Json.Float v)) (end_to_end_of ~scaled:false ts)) );
              ("trace_file", if trace then Obs.Json.String trace_file else Obs.Json.Null);
            ];
        properties =
          props
          @ [
              ( "cli_args",
                Obs.Json.List
                  (List.map (fun a -> Obs.Json.String a) (cli_args ~dir:"<run dir>" kind)) );
              ("attempted", Obs.Json.Int attempted);
              ("failed", Obs.Json.Int failed);
              ("fail_ratio", Obs.Json.Float (float_of_int failed /. float_of_int (max 1 attempted)));
            ];
      })

(* ------------------------------------------------------------------ *)
(* output                                                              *)
(* ------------------------------------------------------------------ *)

let json_num x =
  if not (Float.is_finite x) then failwith "a metric is not a finite number";
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let result_line o ms =
  let metrics =
    String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
         ms)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed metrics

(* read at start-up, before the benchmark pins itself to one core *)
let nproc = Domain.recommended_domain_count ()

let stamp () =
  [
    ("nproc", Obs.Json.Int nproc);
    ("ocaml", Obs.Json.String Sys.ocaml_version);
  ]

let report_file ~name ~seed ~trace o =
  let path = Printf.sprintf "%s/layers-%s-s%d-t%d.json" work_root name seed (if trace then 1 else 0) in
  write_file path
    (Obs.Json.to_string
       (Obs.Json.Obj
          (stamp ()
          @ [
              ("workload", Obs.Json.String name);
              ("seed", Obs.Json.Int seed);
              ("properties", Obs.Json.Obj o.properties);
              ( "end_to_end",
                Obs.Json.Obj (List.map (fun (n, v, _) -> (n, Obs.Json.Float v)) o.end_to_end) );
              ("layers", Obs.Json.Obj o.layers);
            ]))
    ^ "\n");
  path

(* Every metric BENCHMARK.json names, with its unit. *)
let declared () =
  let text =
    let ic = open_in_bin "BENCHMARK.json" in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Obs.Json.parse text with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j ->
      let group key =
        match Obs.Json.member key j with
        | Some (Obs.Json.List l) ->
            List.map
              (fun m ->
                match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
                | Some (Obs.Json.String n), Some (Obs.Json.String u) -> (n, u)
                | _ -> failwith ("BENCHMARK.json: malformed " ^ key))
              l
        | _ -> failwith ("BENCHMARK.json: no " ^ key)
      in
      (group "end_to_end", group "per_layer")

let check_declared ~what declared got =
  List.iter
    (fun (n, u) ->
      match List.find_opt (fun (m, _, _) -> m = n) got with
      | None -> failwith (Printf.sprintf "%s: metric %s missing" what n)
      | Some (_, v, u') ->
          if u <> u' then failwith (Printf.sprintf "%s: %s has unit %s, want %s" what n u' u);
          if not (Float.is_finite v) then
            failwith (Printf.sprintf "%s: %s is not a number" what n))
    declared;
  List.iter
    (fun (m, _, _) ->
      if not (List.mem_assoc m declared) then
        failwith (Printf.sprintf "%s: metric %s is not declared in BENCHMARK.json" what m))
    got

(* ------------------------------------------------------------------ *)
(* entry points                                                        *)
(* ------------------------------------------------------------------ *)

let main_run ~name ~seed ~seconds ~trace =
  let kind =
    match List.assoc_opt name workloads with
    | Some k -> k
    | None -> failwith ("unknown workload " ^ name)
  in
  if not (Sys.file_exists cli_exe) then failwith (cli_exe ^ " is not built");
  let o = run_workload ~size:Gen.full ~name ~seed ~seconds ~trace kind in
  let path = report_file ~name ~seed ~trace o in
  let ms = if trace then o.per_layer else o.end_to_end in
  List.iter (fun (n, v, u) -> Printf.printf "%% %-40s %14.6g %s\n" n v u) ms;
  Printf.printf "%% fail_ratio %g (%d of %d); full report: %s\n"
    (float_of_int o.failed /. float_of_int (max 1 o.attempted)) o.failed o.attempted path;
  Option.iter (fun w -> Printf.printf "%% WRONG OUTPUT: %s\n" w) o.wrong;
  print_endline (result_line o ms);
  if o.correct then 0 else 1

(* A tiny-size pass over all three workloads, traced and untraced:
   every metric BENCHMARK.json names must come out, with its unit, and
   every output must check. *)
let self_check () =
  if not (Sys.file_exists cli_exe) then failwith (cli_exe ^ " is not built");
  let e2e, layer = declared () in
  List.iter
    (fun (name, kind) ->
      List.iter
        (fun trace ->
          let o = run_workload ~size:Gen.tiny ~name ~seed:7 ~seconds:0.6 ~trace kind in
          let what = Printf.sprintf "%s (trace %b)" name trace in
          if not o.correct then
            failwith (what ^ ": wrong output: " ^ Option.value o.wrong ~default:"");
          if o.failed > 0 then failwith (what ^ ": failed operations");
          check_declared ~what e2e o.end_to_end;
          if trace then check_declared ~what layer o.per_layer;
          Printf.printf "%% self-check %s: ok (%d operations)\n%!" what o.attempted)
        [ false; true ])
    workloads;
  print_endline "self-check passed";
  0

(* Record each workload's properties at full size for one seed. *)
let describe ~path ~commit ~seed =
  let entries =
    List.map
      (fun (name, kind) ->
        let o = run_workload ~size:Gen.full ~name ~seed ~seconds:3. ~trace:false kind in
        if not o.correct then failwith (name ^ ": wrong output");
        (name, Obs.Json.Obj (("seed", Obs.Json.Int seed) :: o.properties)))
      workloads
  in
  write_file path
    (Obs.Json.to_string
       (Obs.Json.Obj
          (stamp ()
          @ [ ("commit", Obs.Json.String commit); ("workloads", Obs.Json.Obj entries) ]))
    ^ "\n");
  0

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let mode = ref `Run and commit = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME query-point | query-scan | mutate");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--reference-child", Arg.Unit (fun () -> mode := `Reference_child), " serve the reference load on stdin");
      ("--self-check", Arg.Unit (fun () -> mode := `Self_check), " tiny run of every workload");
      ("--describe", Arg.String (fun p -> mode := `Describe p), "FILE record workload properties");
      ("--commit", Arg.Set_string commit, "REV commit stamped by --describe");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe [options]";
  (* a CLI that dies mid-run must surface as an error, not kill the client *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let code =
    try
      mkdir_p work_root;
      match !mode with
      | `Reference_child -> Reference.child_main (); 0
      | `Self_check -> self_check ()
      | `Describe p -> describe ~path:p ~commit:!commit ~seed:!seed
      | `Run ->
          if !trace <> 0 && !trace <> 1 then failwith "--trace takes 0 or 1";
          main_run ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    with
    | Failure msg | Sys_error msg ->
        Printf.eprintf "perfbench: %s\n%!" msg;
        2
    | Unix.Unix_error (e, f, a) ->
        Printf.eprintf "perfbench: %s(%s): %s\n%!" f a (Unix.error_message e);
        2
  in
  exit code
