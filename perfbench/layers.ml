(* Per-layer metrics from the traced pass.

   Every workload reports the same set, so a regression on one layer is
   read off the same name everywhere. Set-up and per-operation times are
   measured on every workload; a per-operation stage means, for the
   query workloads / for mutate:
   - input:  Protocol.parse_line            / Wal.append
   - eval:   Snapshot.ucq_i                 / Serve_supervisor.apply
   - output: Protocol.render_ok             / Incr.image + Wal.rotate,
                                              amortised per mutation
   and the residual is the CLI's mean time per operation minus the
   traced stages (pipe, reader, queue and quarantine lock for the
   server; effect-line printing for serve). The timed serve runs without
   a WAL while the traced pass keeps one, so on mutate the residual
   reads negative by about the input and output stages. Counts that only
   one kind of workload has ([req.*], [mut.*]) read 0 on the other. *)

type metric = string * float * string

(* The per-layer set in report order, with units. *)
let names =
  [
    ("setup.parse_s", "s");
    ("setup.saturate_s", "s");
    ("setup.open_s", "s");
    ("setup.saturate_minor_words_per_fact", "words");
    ("setup.saturate_major_words_per_fact", "words");
    ("setup.triggers_fired", "count");
    ("setup.chase_facts", "count");
    ("setup.joiner_candidates", "count");
    ("op.cli_us", "us");
    ("op.input_us", "us");
    ("op.eval_us", "us");
    ("op.output_us", "us");
    ("op.residual_us", "us");
    ("op.accounted_share", "1");
    ("op.input_minor_words", "words");
    ("op.eval_minor_words", "words");
    ("op.output_minor_words", "words");
    ("op.index_probes", "count");
    ("op.joiner_candidates", "count");
    ("req.key_share", "1");
    ("req.answers", "count");
    ("req.candidates_per_answer", "1");
    ("req.reply_bytes", "bytes");
    ("req.repeat_share", "1");
    ("mut.delete_insert_ratio", "1");
    ("mut.repaired", "count");
    ("mut.overdeleted", "count");
    ("mut.rederived", "count");
    ("mut.rotate_share", "1");
    ("mut.image_bytes", "bytes");
    ("mut.write_amp", "1");
    ("trace.span_pair_ns", "ns");
  ]

(* [report tr ~kind ~setup ~cli_op_us ~counts ~detail] — the per-layer
   metrics (every name of {!names}; [counts] supplies the workload's own
   counters) and the full JSON report: those metrics, the
   workload-specific [detail] rows, and self time per span name. *)
let report tr ~kind ~(setup : Inproc.setup) ~cli_op_us ~counts ~detail =
  let agg = Trace.aggregate tr in
  let a name = Trace.find agg name in
  let total_s name = (a name).Trace.total_ns /. 1e9 in
  let per n x = if n = 0 then 0. else x /. float_of_int n in
  let mean_us name = per (a name).Trace.count (a name).Trace.total_ns /. 1e3 in
  let mean_words name = per (a name).Trace.count (a name).Trace.words in
  let facts = float_of_int setup.Inproc.chase_facts in
  let stage_in, stage_eval, saturate, ops, op_total_ns, out_us, out_words =
    match kind with
    | `Query ->
        let n = (a "request").Trace.count in
        ( "server.protocol.parse_line",
          "engine.ucq_i",
          "engine.saturate",
          n,
          (a "request").Trace.total_ns,
          mean_us "server.protocol.render_ok",
          mean_words "server.protocol.render_ok" )
    | `Mutate ->
        let n = (a "mutation").Trace.count in
        ( "resil.wal.append",
          "resil.serve_supervisor.apply",
          "incr.create",
          n,
          (a "serve-loop").Trace.total_ns,
          per n (a "rotate").Trace.total_ns /. 1e3,
          per n (a "rotate").Trace.words )
  in
  let traced_us = per ops op_total_ns /. 1e3 in
  let in_us = mean_us stage_in and eval_us = mean_us stage_eval in
  let staged = in_us +. eval_us +. out_us in
  let measured =
    [
      ("setup.parse_s", total_s "syntax.parse");
      ("setup.saturate_s", total_s saturate);
      ("setup.open_s", total_s "setup.open");
      ("setup.saturate_minor_words_per_fact", setup.Inproc.saturate_minor /. facts);
      ("setup.saturate_major_words_per_fact", setup.Inproc.saturate_major /. facts);
      ("setup.triggers_fired", float_of_int setup.Inproc.triggers_fired);
      ("setup.chase_facts", facts);
      ("setup.joiner_candidates", float_of_int setup.Inproc.joiner_candidates);
      ("op.cli_us", cli_op_us);
      ("op.input_us", in_us);
      ("op.eval_us", eval_us);
      ("op.output_us", out_us);
      ("op.residual_us", cli_op_us -. staged);
      ("op.accounted_share", if traced_us > 0. then staged /. traced_us else 0.);
      ("op.input_minor_words", mean_words stage_in);
      ("op.eval_minor_words", mean_words stage_eval);
      ("op.output_minor_words", out_words);
      ( "req.key_share",
        match kind with
        | `Query -> mean_us "server.protocol.key" /. in_us
        | `Mutate -> 0. );
      ( "mut.rotate_share",
        match kind with `Mutate -> (a "rotate").Trace.total_ns /. op_total_ns | `Query -> 0. );
      ("trace.span_pair_ns", Trace.empty_pair_ns ());
    ]
    @ List.map (fun (n, v, _) -> (n, v)) counts
  in
  let metrics =
    List.map
      (fun (n, u) -> (n, Option.value (List.assoc_opt n measured) ~default:0., u))
      names
  in
  let self =
    Hashtbl.fold (fun name x acc -> (name, x.Trace.self_ns /. 1e9) :: acc) agg []
    |> List.sort compare
  in
  (* the same numbers under the layer-specific names *)
  let m name = Option.value (List.assoc_opt name measured) ~default:0. in
  let aliases =
    match kind with
    | `Query ->
        [
          ("setup.freeze_s", m "setup.open_s");
          ("setup.index_probes", float_of_int setup.Inproc.index_probes);
          ("req.parse_us", in_us);
          ("req.key_us", mean_us "server.protocol.key");
          ("req.parse_minor_words", mean_words stage_in);
          ("req.eval_us", eval_us);
          ("req.eval_minor_words", mean_words stage_eval);
          ("req.index_probes", m "op.index_probes");
          ("req.joiner_candidates", m "op.joiner_candidates");
          ("req.render_us", out_us);
          ("req.render_minor_words", out_words);
          ("req.residual_us", m "op.residual_us");
        ]
    | `Mutate ->
        [
          ("setup.wal_create_s", m "setup.open_s");
          ("setup.index_probes", float_of_int setup.Inproc.index_probes);
          ("mut.append_us", in_us);
          ("mut.apply_minor_words", mean_words stage_eval);
          ("mut.rotate_s", total_s "rotate");
          ("mut.residual_us", m "op.residual_us");
        ]
  in
  let num (n, v, _) = (n, Obs.Json.Float v) in
  let json =
    [
      ("per_layer", Obs.Json.Obj (List.map num metrics));
      ( "detail",
        Obs.Json.Obj
          (List.map (fun (n, v) -> (n, Obs.Json.Float v)) aliases @ List.map num detail) );
      ("self_s", Obs.Json.Obj (List.map (fun (n, v) -> (n, Obs.Json.Float v)) self));
      ("traced_op_us", Obs.Json.Float traced_us);
    ]
  in
  (metrics, json)
