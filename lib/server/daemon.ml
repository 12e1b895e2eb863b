(** Concurrent serving loop; see the interface for the contract. *)

type config = {
  workers : int;
  max_facts : int option;
  max_ms : float option;
  fault_plan : Resil.Fault.plan;
}

type summary = {
  served : int;
  ok : int;
  partial : int;
  errors : int;
  quarantined : int;
  drained : bool;
  wall_s : float;
  minor_words : float;
  major_words : float;
}

type counts = {
  mutable c_ok : int;
  mutable c_partial : int;
  mutable c_errors : int;
  mutable c_quarantined : int;
}

(* Domain-local allocation counters (minor, promoted, major words).
   [Gc.quick_stat] is unusable for per-worker deltas: it folds the
   accumulated totals of every *terminated* domain into the reading, so
   a worker sampling after a sibling exits absorbs the sibling's whole
   history. The primitive reads only the calling domain's counters. *)
external gc_counters : unit -> float * float * float = "caml_gc_counters"

let run ?report ?(stop = ref false) cfg snap ic oc =
  if cfg.workers < 1 then invalid_arg "Daemon.run: workers must be >= 1";
  if
    cfg.fault_plan <> [] && cfg.workers > 1
    && not (Resil.Fault.stateless cfg.fault_plan)
  then
    invalid_arg
      "Daemon.run: a counted --fault-plan requires workers = 1 (only \
       always-fire plans are race-free)";
  let t0 = Unix.gettimeofday () in
  (* raw-line queue: the main domain only reads and enqueues; workers
     parse as well as evaluate, so per-request work never serialises on
     the producer *)
  let q : (int * string) Queue.t = Queue.create () in
  let qm = Mutex.create () and qc = Condition.create () in
  let closed = ref false in
  let push r =
    Mutex.protect qm (fun () ->
        Queue.push r q;
        Condition.signal qc)
  in
  let close () =
    Mutex.protect qm (fun () ->
        closed := true;
        Condition.broadcast qc)
  in
  (* workers drain a small batch per lock acquisition: one item when
     the queue is short (interactive latency), up to [batch_max] under
     load, so the per-item hand-off cost amortises across the batch *)
  let batch_max = 32 in
  let pop_batch () =
    Mutex.protect qm (fun () ->
        let rec wait () =
          if not (Queue.is_empty q) then begin
            let n = min batch_max (Queue.length q) in
            let items = ref [] in
            for _ = 1 to n do
              items := Queue.pop q :: !items
            done;
            Some (List.rev !items)
          end
          else if !closed then None
          else begin
            Condition.wait qc qm;
            wait ()
          end
        in
        wait ())
  in
  (* output mutex also guards the reply counters: one lock per reply *)
  let om = Mutex.create () in
  let counts = { c_ok = 0; c_partial = 0; c_errors = 0; c_quarantined = 0 } in
  let emit_all replies =
    if replies <> [] then
      Mutex.protect om (fun () ->
          List.iter
            (fun (cls, line) ->
              (match cls with
              | `Ok -> counts.c_ok <- counts.c_ok + 1
              | `Partial -> counts.c_partial <- counts.c_partial + 1
              | `Error -> counts.c_errors <- counts.c_errors + 1
              | `Quarantined ->
                  counts.c_quarantined <- counts.c_quarantined + 1);
              output_string oc line;
              output_char oc '\n')
            replies;
          flush oc)
  in
  (* quarantine table: canonical query key -> first failure message *)
  let quarantine : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let quarantine_m = Mutex.create () in
  let saturated = Engine.Snapshot.saturated snap in
  let evaluate view metrics span (r : Protocol.request) =
    (* the latency histogram covers every outcome of a well-formed
       request — success, injected fault, quarantine refusal — so qps
       and percentiles describe the whole served stream, not only the
       happy path *)
    let t = Unix.gettimeofday () in
    let timed reply =
      Obs.Metrics.observe metrics "server.request_s"
        (Unix.gettimeofday () -. t);
      reply
    in
    let poisoned =
      Mutex.protect quarantine_m (fun () -> Hashtbl.mem quarantine r.Protocol.key)
    in
    if poisoned then
      timed (`Quarantined, Protocol.render_quarantined ~id:r.Protocol.id)
    else
      let budget =
        match (cfg.max_facts, cfg.max_ms) with
        | None, None -> None
        | facts, ms -> Some (Obs.Budget.create ?max_facts:facts ?max_ms:ms ())
      in
      match
        Obs.Span.timed span "request" (fun () ->
            Engine.Snapshot.ucq_i ?budget view r.Protocol.query)
      with
      | res ->
          let cls =
            match Engine.Enumerate.ioutcome res with
            | Obs.Budget.Complete when saturated -> `Ok
            | _ -> `Partial
          in
          timed (cls, Protocol.render_ok r ~saturated res)
      | exception e ->
          let msg = Resil.Fault.describe e in
          (* check-and-mark under one lock: when duplicates of a poison
             query fault concurrently, exactly one reply is the error
             and the rest are quarantined — the same counts any worker
             count produces *)
          let first =
            Mutex.protect quarantine_m (fun () ->
                if Hashtbl.mem quarantine r.Protocol.key then false
                else begin
                  Hashtbl.replace quarantine r.Protocol.key msg;
                  true
                end)
          in
          timed
            (if first then (`Error, Protocol.render_error ~id:r.Protocol.id msg)
             else (`Quarantined, Protocol.render_quarantined ~id:r.Protocol.id))
  in
  (* per-worker views and (optional) spans, created on the main domain
     before spawning so the shared span tree is never mutated
     concurrently: worker i only ever touches its own subtree *)
  let views = Array.init cfg.workers (fun _ -> Engine.Snapshot.view snap) in
  let wspans =
    Array.init cfg.workers (fun i ->
        Option.map
          (fun rep ->
            Obs.Span.enter (Obs.Report.span rep) (Fmt.str "worker-%d" i))
          report)
  in
  (* per-worker allocation deltas (slot i written only by worker i, read
     after join): the tentpole's regression signal — minor words per
     served request is what multicore qps is bounded by *)
  let walloc = Array.make cfg.workers (0., 0.) in
  let worker i () =
    let view = views.(i) in
    let metrics = Engine.Snapshot.view_metrics view in
    let min0, _, maj0 = gc_counters () in
    let rec loop () =
      match pop_batch () with
      | None -> ()
      | Some items ->
          emit_all
            (List.filter_map
               (fun (id, line) ->
                 match Protocol.parse_line ~id line with
                 | Protocol.Empty -> None
                 | Protocol.Malformed msg ->
                     Some (`Error, Protocol.render_error ~id msg)
                 | Protocol.Request r ->
                     Some (evaluate view metrics wspans.(i) r))
               items);
          loop ()
    in
    loop ();
    let min1, _, maj1 = gc_counters () in
    walloc.(i) <- (min1 -. min0, maj1 -. maj0)
  in
  let serve () =
    let domains = Array.init cfg.workers (fun i -> Domain.spawn (worker i)) in
    (* select-guarded reader: [input_line] would block in [read] until
       the next newline, so a SIGTERM on an idle server used to wait for
       one more request line before draining. Polling readiness keeps
       the drain latency bounded by the tick. Reads bypass the channel's
       buffer (the channel is fresh: nothing has been read through it). *)
    let fd = Unix.descr_of_in_channel ic in
    let buf = Bytes.create 65536 in
    let acc = Buffer.create 256 in
    let lineno = ref 0 in
    let push_line line =
      incr lineno;
      push (!lineno, line)
    in
    let eof = ref false in
    while not (!stop || !eof) do
      let ready =
        match Unix.select [ fd ] [] [] 0.05 with
        | [], _, _ -> false
        | _ -> true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
      in
      if ready && not !stop then
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> eof := true
        | k ->
            for j = 0 to k - 1 do
              match Bytes.get buf j with
              | '\n' ->
                  push_line (Buffer.contents acc);
                  Buffer.clear acc
              | c -> Buffer.add_char acc c
            done
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    (* a final unterminated line is still a request ([input_line]
       semantics); a partial line at drain time is dropped with the rest
       of the unread input *)
    if !eof && Buffer.length acc > 0 then push_line (Buffer.contents acc);
    let drained = !stop in
    close ();
    Array.iter Domain.join domains;
    drained
  in
  let drained =
    if cfg.fault_plan = [] then serve ()
    else begin
      Resil.Fault.arm_seq cfg.fault_plan;
      Fun.protect ~finally:Resil.Fault.disarm serve
    end
  in
  Array.iter (fun s -> Option.iter Obs.Span.exit s) wspans;
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_words = Array.fold_left (fun a (m, _) -> a +. m) 0. walloc in
  let major_words = Array.fold_left (fun a (_, m) -> a +. m) 0. walloc in
  (match report with
  | None -> ()
  | Some rep ->
      (* worker-order absorption keeps merged counters and histogram
         buckets identical for a given request set, any scheduling *)
      Array.iter
        (fun v ->
          Obs.Metrics.absorb ~into:(Obs.Report.metrics rep)
            (Engine.Snapshot.view_metrics v))
        views;
      let field k v = Obs.Report.add_field rep k (Obs.Json.Int v) in
      field "server.workers" cfg.workers;
      field "server.requests"
        (counts.c_ok + counts.c_partial + counts.c_errors
       + counts.c_quarantined);
      field "server.ok" counts.c_ok;
      field "server.partial" counts.c_partial;
      field "server.errors" counts.c_errors;
      field "server.quarantined" counts.c_quarantined;
      Obs.Report.add_field rep "server.minor_words"
        (Obs.Json.Float minor_words);
      Obs.Report.add_field rep "server.major_words"
        (Obs.Json.Float major_words);
      Obs.Report.add_rate_block rep ~prefix:"server"
        ~histogram:"server.request_s" ~wall_s);
  {
    served =
      counts.c_ok + counts.c_partial + counts.c_errors + counts.c_quarantined;
    ok = counts.c_ok;
    partial = counts.c_partial;
    errors = counts.c_errors;
    quarantined = counts.c_quarantined;
    drained;
    wall_s;
    minor_words;
    major_words;
  }
