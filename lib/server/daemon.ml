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
  reply_hits : int;
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
   history. The primitive reads only the calling domain's counters; its
   minor count is off by up to a minor heap on OCaml 5.1, so minor words
   come from the (domain-local, exact) [Gc.minor_words]. *)
external gc_counters : unit -> float * float * float = "caml_gc_counters"

module Keys = Map.Make (String)

(* The longest request line held, in bytes (newline excluded). A longer
   line is not buffered: its bytes are dropped up to its newline and it
   gets one [error] reply, so input without newlines cannot grow the
   partial-line buffer without bound. *)
let max_line_bytes = 1 lsl 20
let overlong_msg = Fmt.str "request line longer than %d bytes" max_line_bytes

(* A pending input line: its text, or the mark of a line over the cap. *)
type line = Line of string | Overlong

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
  (* leader/follower input, all behind [im]: a worker that finds no
     pending line reads for itself, keeps at most [batch_max] lines and
     leaves the rest to the other workers. Only idle workers read, so a
     flood queues at most one read's worth of lines. Reads bypass the
     fresh channel's buffer. The main domain waits in one blocking
     [read]: a process-directed SIGTERM lands on the main thread, so
     the read returns EINTR and the drain starts at once. A spawned
     domain is not woken by it, so it waits on a select-guarded 50 ms
     tick, and so does the main domain after an interrupted read (the
     handler that flips [stop] may run on another domain) until input
     arrives again. *)
  let im = Mutex.create () in
  let fd = Unix.descr_of_in_channel ic in
  let buf = Bytes.create 65536 and acc = Buffer.create 256 in
  let pending : (int * line) Queue.t = Queue.create () in
  let lineno = ref 0 and eof = ref false and overlong = ref false in
  let tick = ref false in
  let push line =
    incr lineno;
    Queue.push (!lineno, line) pending
  in
  let push_partial () =
    push (if !overlong then Overlong else Line (Buffer.contents acc));
    Buffer.clear acc;
    overlong := false
  in
  (* append [len] bytes of [buf] from [j] to the partial line, unless it
     is (or now becomes) over the cap *)
  let add_bytes j len =
    if not !overlong then
      if Buffer.length acc + len > max_line_bytes then begin
        overlong := true;
        Buffer.reset acc
      end
      else Buffer.add_subbytes acc buf j len
  in
  let read_once () =
    let ready =
      (Domain.is_main_domain () && not !tick)
      ||
      match Unix.select [ fd ] [] [] 0.05 with
      | [], _, _ -> false
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if ready && not !stop then
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 ->
          (* a final unterminated line is still a request ([input_line]
             semantics); a partial line at drain time is dropped with
             the rest of the unread input *)
          eof := true;
          if Buffer.length acc > 0 || !overlong then push_partial ()
      | k ->
          tick := false;
          let j = ref 0 in
          for e = 0 to k - 1 do
            if Bytes.unsafe_get buf e = '\n' then begin
              (* a line wholly inside [buf] is shorter than the cap *)
              if Buffer.length acc = 0 && not !overlong then
                push (Line (Bytes.sub_string buf !j (e - !j)))
              else begin
                add_bytes !j (e - !j);
                push_partial ()
              end;
              j := e + 1
            end
          done;
          add_bytes !j (k - !j)
      | exception
          Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
          tick := true
  in
  let batch_max = 32 in
  let rec next_batch () =
    if not (Queue.is_empty pending) then
      let n = min batch_max (Queue.length pending) in
      Some (List.init n (fun _ -> Queue.pop pending))
    else if !eof || !stop then None
    else begin
      read_once ();
      next_batch ()
    end
  in
  let next_batch () = Mutex.protect im next_batch in
  (* output mutex also guards the reply counters: one lock per batch *)
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
  (* quarantine table (canonical query key -> first failure message): an
     immutable map swapped on write, so the read is one [Atomic.get] and
     the key is rendered only once the table holds an entry *)
  let quarantine = Atomic.make Keys.empty and quarantine_m = Mutex.create () in
  let saturated = Engine.Snapshot.saturated snap in
  (* the reply cache is consulted and filled only while no probe hook is
     armed and nothing is quarantined, so fault plans and quarantine
     classification see every request evaluated *)
  let cache_on () =
    (not (Obs.Probe.armed ())) && Keys.is_empty (Atomic.get quarantine)
  in
  let evaluate view request_s span cache line (r : Protocol.request) =
    (* the latency histogram covers every outcome of a well-formed
       request — cache hit, success, injected fault, quarantine refusal
       — so qps and percentiles describe the whole served stream, not
       only the happy path *)
    let t = Unix.gettimeofday () in
    let timed reply =
      Obs.Metrics.record request_s (Unix.gettimeofday () -. t);
      reply
    in
    let poisoned =
      let q = Atomic.get quarantine in
      (not (Keys.is_empty q)) && Keys.mem (Protocol.key r) q
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
          let complete =
            match Engine.Enumerate.ioutcome res with
            | Obs.Budget.Complete -> true
            | Obs.Budget.Partial _ -> false
          in
          let reply = Protocol.render_ok r ~saturated res in
          (* a budget cut depends on the budget, not on the line alone:
             only complete evaluations are stored *)
          if complete && cache_on () then
            Reply_cache.add cache line ~partial:(not saturated) reply;
          timed ((if complete && saturated then `Ok else `Partial), reply)
      | exception e ->
          let msg = Resil.Fault.describe e and key = Protocol.key r in
          (* check-and-mark under one lock: when duplicates of a poison
             query fault concurrently, exactly one reply is the error
             and the rest are quarantined — the same counts any worker
             count produces *)
          let first =
            Mutex.protect quarantine_m (fun () ->
                let q = Atomic.get quarantine in
                if Keys.mem key q then false
                else (Atomic.set quarantine (Keys.add key msg q); true))
          in
          timed
            (if first then (`Error, Protocol.render_error ~id:r.Protocol.id msg)
             else (`Quarantined, Protocol.render_quarantined ~id:r.Protocol.id))
  in
  (* per-worker views and (optional) spans, created before spawning so
     the shared span tree is never mutated concurrently: worker i only
     ever touches its own subtree *)
  let views = Array.init cfg.workers (fun _ -> Engine.Snapshot.view snap) in
  let caches = Array.init cfg.workers (fun _ -> Reply_cache.create ()) in
  let wspans =
    Array.init cfg.workers (fun i ->
        Option.map
          (fun rep ->
            Obs.Span.enter (Obs.Report.span rep) (Fmt.str "worker-%d" i))
          report)
  in
  (* per-worker allocation deltas, reading included (slot i written only
     by worker i, read after join): minor words per served request is
     what multicore qps is bounded by *)
  let walloc = Array.make cfg.workers (0., 0.) in
  let worker i () =
    let view = views.(i) and cache = caches.(i) in
    let metrics = Engine.Snapshot.view_metrics view in
    let hits = Obs.Metrics.counter metrics "server.reply_hits" in
    let request_s = Obs.Metrics.histogram metrics "server.request_s" in
    let min0 = Gc.minor_words () and _, _, maj0 = gc_counters () in
    let serve_line id line =
      let e = if cache_on () then Reply_cache.find cache line else -1 in
      if e >= 0 then begin
        let t = Unix.gettimeofday () in
        Obs.Metrics.incr hits;
        let reply = Reply_cache.reply cache e ~id in
        Obs.Metrics.record request_s (Unix.gettimeofday () -. t);
        Some ((if Reply_cache.partial cache e then `Partial else `Ok), reply)
      end
      else
        match Protocol.parse_line ~id line with
        | Protocol.Empty -> None
        | Protocol.Malformed msg -> Some (`Error, Protocol.render_error ~id msg)
        | Protocol.Request r ->
            Some (evaluate view request_s wspans.(i) cache line r)
    in
    let rec loop () =
      match next_batch () with
      | None -> ()
      | Some items ->
          emit_all
            (List.filter_map
               (fun (id, line) ->
                 match line with
                 | Overlong ->
                     Some (`Error, Protocol.render_error ~id overlong_msg)
                 | Line line -> serve_line id line)
               items);
          loop ()
    in
    loop ();
    let min1 = Gc.minor_words () and _, _, maj1 = gc_counters () in
    walloc.(i) <- (min1 -. min0, maj1 -. maj0)
  in
  (* the caller is worker 0, so one worker means one domain; should it
     raise, the input is closed so the others finish and can be joined *)
  let serve () =
    let others =
      Array.init (cfg.workers - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    (match worker 0 () with
    | () -> ()
    | exception e ->
        Mutex.protect im (fun () -> eof := true);
        Array.iter (fun d -> try Domain.join d with _ -> ()) others;
        raise e);
    Array.iter Domain.join others;
    not !eof
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
  let served =
    counts.c_ok + counts.c_partial + counts.c_errors + counts.c_quarantined
  in
  let reply_hits =
    Array.fold_left
      (fun n v ->
        n + Obs.Metrics.count (Engine.Snapshot.view_metrics v) "server.reply_hits")
      0 views
  in
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
      field "server.requests" served;
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
    served;
    ok = counts.c_ok;
    partial = counts.c_partial;
    errors = counts.c_errors;
    quarantined = counts.c_quarantined;
    reply_hits;
    drained;
    wall_s;
    minor_words;
    major_words;
  }
