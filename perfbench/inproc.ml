(* The in-process pass: the same layer calls the CLI makes, in the same
   order, each wrapped in a span (when tracing is on). It also computes
   the output every CLI reply is checked against: the expected reply
   per request line, and the expected effect line per mutation plus the
   final store size. *)

open Relational

let parse_program text =
  let p = Syntax.Parser.parse text in
  (p, Syntax.Parser.database p)

(* Allocation of a set-up call: (minor, major) words. *)
let with_words f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  (r, s1.Gc.minor_words -. s0.Gc.minor_words, s1.Gc.major_words -. s0.Gc.major_words)

type setup = {
  base_facts : int;
  chase_facts : int;
  triggers_fired : int;
  index_probes : int;
  joiner_candidates : int;
  saturate_minor : float;
  saturate_major : float;
}

(* ------------------------------------------------------------------ *)
(* query-point / query-scan                                            *)
(* ------------------------------------------------------------------ *)

type request_counts = {
  mutable traced : int;
  mutable probes : int;
  mutable candidates : int;
  mutable answers : int;
  mutable reply_bytes : int;
}

type query = {
  q_setup : setup;
  expected : string array;  (** reply per stream line, without the id *)
  answers : int array;  (** answers per stream line *)
  counts : request_counts;  (** summed over the traced requests *)
}

let body reply =
  match String.index_opt reply ' ' with
  | Some i -> String.sub reply (i + 1) (String.length reply - i - 1)
  | None -> reply

(* [query_pass tr ~program stream ~traced] — parse, chase, freeze as the
   [server] command does, then serve every line of [stream] through
   [Protocol.parse_line], [Snapshot.ucq_i] and [Protocol.render_ok]. The
   first [traced] lines run under spans, one [request] span each with the
   layer calls as children; the rest only fill the expected replies
   (repeated lines are looked up, not re-evaluated). *)
let query_pass tr ~program stream ~traced =
  let p, db = Trace.span tr "syntax.parse" (fun () -> parse_program program) in
  Term.reset_nulls ();
  let r, minor, major =
    with_words (fun () ->
        Trace.span tr "engine.saturate" (fun () ->
            Tgds.Chase.run ~engine:`Indexed ~max_level:8 p.Syntax.Parser.tgds db))
  in
  let saturated = Tgds.Chase.saturated r in
  if not saturated then failwith "the chase did not saturate";
  let snap, view =
    Trace.span tr "setup.open" (fun () ->
        let snap =
          Engine.Snapshot.freeze ~saturated ~universe:(Instance.dom db)
            (Tgds.Chase.index r)
        in
        (snap, Engine.Snapshot.view snap))
  in
  let q_setup =
    {
      base_facts = Instance.size db;
      chase_facts = Engine.Snapshot.size snap;
      triggers_fired =
        (match Tgds.Chase.engine_result r with
        | Some er -> er.Engine.Saturate.triggers_fired
        | None -> 0);
      index_probes = Engine.Index.probes (Tgds.Chase.index r);
      joiner_candidates =
        Obs.Metrics.count (Engine.Index.metrics (Tgds.Chase.index r)) "joiner.candidates";
      saturate_minor = minor;
      saturate_major = major;
    }
  in
  let metrics = Engine.Snapshot.view_metrics view in
  let counts = { traced = 0; probes = 0; candidates = 0; answers = 0; reply_bytes = 0 } in
  let serve tr ~id line =
    Trace.span tr ~req:id "request" (fun () ->
        match
          Trace.span tr ~req:id "server.protocol.parse_line" (fun () ->
              Server.Protocol.parse_line ~id line)
        with
        | Server.Protocol.Request rq ->
            let res =
              Trace.span tr ~req:id "engine.ucq_i" (fun () ->
                  Engine.Snapshot.ucq_i view rq.Server.Protocol.query)
            in
            let reply =
              Trace.span tr ~req:id "server.protocol.render_ok" (fun () ->
                  Server.Protocol.render_ok rq ~saturated res)
            in
            (rq, Engine.Enumerate.icount res, reply)
        | _ -> failwith ("generated request did not parse: " ^ line))
  in
  let n = Array.length stream in
  let expected = Array.make n "" and answers = Array.make n 0 in
  let memo = Hashtbl.create 1024 in
  for i = 0 to n - 1 do
    let line = stream.(i) and id = i + 1 in
    if i < traced then begin
      let p0 = Obs.Metrics.count metrics "index.probes" in
      let c0 = Obs.Metrics.count metrics "joiner.candidates" in
      let rq, k, reply = serve tr ~id line in
      counts.traced <- counts.traced + 1;
      counts.probes <- counts.probes + Obs.Metrics.count metrics "index.probes" - p0;
      counts.candidates <-
        counts.candidates + Obs.Metrics.count metrics "joiner.candidates" - c0;
      counts.answers <- counts.answers + k;
      counts.reply_bytes <- counts.reply_bytes + String.length reply + 1;
      (* the quarantine key's render, timed on its own (parse_line
         already paid for it once inside its span) *)
      Trace.span tr ~req:id "server.protocol.key" (fun () ->
          ignore (Fmt.str "%a" Ucq.pp rq.Server.Protocol.query));
      let b = body reply in
      Hashtbl.replace memo line (b, k);
      expected.(i) <- b;
      answers.(i) <- k
    end
    else begin
      let b, k =
        match Hashtbl.find_opt memo line with
        | Some v -> v
        | None ->
            let _, k, reply = serve Trace.off ~id line in
            let v = (body reply, k) in
            Hashtbl.add memo line v;
            v
      in
      expected.(i) <- b;
      answers.(i) <- k
    end
  done;
  { q_setup; expected; answers; counts }

(* ------------------------------------------------------------------ *)
(* mutate                                                              *)
(* ------------------------------------------------------------------ *)

type mutate = {
  m_setup : setup;
  effects : string array;  (** the CLI's line per mutation *)
  final_facts : int;
  inserts : int;
  deletes : int;
  repaired : int;
  overdeleted : int;
  rederived : int;
  insert_ns : float;  (** summed [Serve_supervisor.apply] time per kind *)
  delete_ns : float;
  probes : int;  (** index probes over the whole loop *)
  candidates : int;  (** joiner candidates over the whole loop *)
  image_bytes : int list;  (** each rotated image's size *)
  written_bytes : int;  (** WAL records plus rotated images *)
}

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* [mutate_pass tr ~program ~log ~wal_dir ~checkpoint_every] — the
   resilient path of [serve --wal]: parse program and log, chase into a
   maintained store, write image 0, then per mutation append, apply under
   the supervisor and rotate every [checkpoint_every] applied
   mutations. *)
let mutate_pass tr ~program ~log ~wal_dir ~checkpoint_every =
  let (p, db), muts =
    Trace.span tr "syntax.parse" (fun () ->
        let pd = parse_program program in
        let muts =
          List.concat_map Syntax.Parser.parse_mutations
            (String.split_on_char '\n' log)
        in
        (pd, Array.of_list muts))
  in
  let sigma = p.Syntax.Parser.tgds in
  let obs = Obs.Span.root "serve" in
  Term.reset_nulls ();
  let store0, minor, major =
    with_words (fun () ->
        Trace.span tr "incr.create" (fun () ->
            Incr.create ~engine:`Indexed ~max_level:8 ~obs sigma db))
  in
  if not (Incr.saturated store0) then failwith "the chase did not saturate";
  let im0, wal =
    Trace.span tr "setup.open" (fun () ->
        let im0 = Trace.span tr "incr.image" (fun () -> Incr.image store0) in
        ( im0,
          Trace.span tr "resil.wal.create" (fun () -> Resil.Wal.create ~dir:wal_dir im0) ))
  in
  let m_setup =
    {
      base_facts = Instance.size db;
      chase_facts = Incr.size store0;
      (* one ledger entry per fired trigger *)
      triggers_fired = List.length im0.Incr.im_ledger;
      index_probes = Obs.Metrics.count (Incr.metrics store0) "index.probes";
      joiner_candidates = Obs.Metrics.count (Incr.metrics store0) "joiner.candidates";
      saturate_minor = minor;
      saturate_major = major;
    }
  in
  let store = ref store0 in
  let base_image = ref None and ops_since = ref [] and since_rotate = ref 0 in
  let anchor ~req =
    base_image := Some (Trace.span tr ~req "incr.image" (fun () -> Incr.image !store));
    ops_since := [];
    since_rotate := 0
  in
  let restore () =
    let st = Incr.of_image sigma (Option.get !base_image) in
    List.iter (fun op -> ignore (Incr.apply st op)) (List.rev !ops_since);
    st
  in
  let rechase st = Incr.create ~engine:`Indexed sigma (Incr.base st) in
  let n = Array.length muts in
  let effects = Array.make n "" in
  let inserts = ref 0 and deletes = ref 0 in
  let repaired = ref 0 and overdeleted = ref 0 and rederived = ref 0 in
  let insert_ns = ref 0. and delete_ns = ref 0. in
  let image_bytes = ref [] and written = ref 0 in
  let segment = ref (Filename.concat wal_dir "wal-0.log") in
  (* the store (and so its registry) may be replaced by a ladder rung;
     it is not on a clean run, which is the only run accepted below *)
  let count name = Obs.Metrics.count (Incr.metrics !store) name in
  let probes0 = count "index.probes" and cand0 = count "joiner.candidates" in
  let rotate name seq =
    Trace.span tr ~req:seq name (fun () ->
        written := !written + file_size !segment;
        anchor ~req:seq;
        Trace.span tr ~req:seq "resil.wal.rotate" (fun () ->
            Resil.Wal.rotate wal ~seq (Option.get !base_image));
        let im = file_size (Filename.concat wal_dir (Printf.sprintf "image-%d.json" seq)) in
        image_bytes := im :: !image_bytes;
        written := !written + im;
        segment := Filename.concat wal_dir (Printf.sprintf "wal-%d.log" seq))
  in
  (* The CLI anchors its restore point right after the ready line, and
     prints a mutation's effect line before rotating after it: a
     rotation after the last mutation falls outside its measured phase,
     so it runs outside [serve-loop] here. *)
  Trace.span tr "serve-loop" (fun () ->
  Trace.span tr "rotate" (fun () -> anchor ~req:0);
  for seq = 1 to n do
    let op =
      match muts.(seq - 1) with
      | Syntax.Parser.Add f -> Incr.Insert f
      | Syntax.Parser.Del f -> Incr.Delete f
    in
    Trace.span tr ~req:seq "mutation" (fun () ->
        Trace.span tr ~req:seq "resil.wal.append" (fun () ->
            Resil.Wal.append wal (Resil.Wal.Op (seq, op)));
        let t0 = Trace.now_ns () in
        let outcome =
          Trace.span tr ~req:seq "resil.serve_supervisor.apply" (fun () ->
              Resil.Serve_supervisor.apply ~obs ~restore ~rechase ~store op)
        in
        let dt = Int64.to_float (Int64.sub (Trace.now_ns ()) t0) in
        match outcome with
        | Resil.Serve_supervisor.Applied (eff, [ { st_outcome = `Ok; _ } ]) ->
            if eff.Incr.e_noop then failwith "a generated mutation was a no-op";
            repaired := !repaired + eff.Incr.e_repaired;
            overdeleted := !overdeleted + eff.Incr.e_overdeleted;
            rederived := !rederived + eff.Incr.e_rederived;
            effects.(seq - 1) <-
              (match op with
              | Incr.Insert f ->
                  incr inserts;
                  insert_ns := !insert_ns +. dt;
                  Fmt.str "%% +%a: %d facts added" Fact.pp f eff.Incr.e_repaired
              | Incr.Delete f ->
                  incr deletes;
                  delete_ns := !delete_ns +. dt;
                  Fmt.str "%% -%a: overdeleted %d, rederived %d, repaired %d, deleted %d"
                    Fact.pp f eff.Incr.e_overdeleted eff.Incr.e_rederived
                    eff.Incr.e_repaired eff.Incr.e_deleted);
            ops_since := op :: !ops_since;
            incr since_rotate;
            if !since_rotate >= checkpoint_every && seq < n then rotate "rotate" seq
        | _ -> failwith (Printf.sprintf "mutation %d did not apply cleanly" seq))
  done);
  if !since_rotate >= checkpoint_every then rotate "rotate.final" n;
  written := !written + file_size !segment;
  Resil.Wal.close wal;
  let probes = count "index.probes" - probes0 in
  let candidates = count "joiner.candidates" - cand0 in
  {
    m_setup;
    effects;
    final_facts = Incr.size !store;
    inserts = !inserts;
    deletes = !deletes;
    repaired = !repaired;
    overdeleted = !overdeleted;
    rederived = !rederived;
    insert_ns = !insert_ns;
    delete_ns = !delete_ns;
    probes;
    candidates;
    image_bytes = List.rev !image_bytes;
    written_bytes = !written;
  }
