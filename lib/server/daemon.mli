(** Concurrent query server over a frozen saturated store.

    {!run} reads {!Protocol} request lines from an input channel,
    evaluates each against an {!Engine.Snapshot} through a pool of
    worker domains, and writes one reply line per request to the output
    channel. The caller is worker 0; [workers - 1] more domains are
    spawned. There is no reader domain: a worker that finds no pending
    line reads the input itself under the input lock (leader/follower),
    keeps at most 32 lines and leaves the rest to the others, then
    parses and evaluates on its own {!Engine.Snapshot.view} and emits
    under an output mutex, so reply lines never interleave mid-line.
    Replies appear in completion order — each line is canonical
    per-request bytes ({!Protocol}), so sorting a transcript by leading
    id yields a document independent of worker count and scheduling.

    A request line longer than 1 MiB (newline excluded) is not held:
    its bytes are dropped up to its newline, and it gets exactly one
    [error] reply under its own id, so the input buffer stays bounded
    whatever the input.

    Each worker owns a fixed-size {!Reply_cache}: since nothing mutates
    the snapshot, a request line's reply is a fixed function of its
    bytes, so a line served before is answered from the cache without
    parsing, evaluation or rendering, byte-identical to its evaluation.
    Only complete evaluations are stored (a budget cut never is), and
    the cache is neither read nor filled while a probe hook is armed or
    the quarantine table holds an entry. Hits count in
    [server.reply_hits].

    Resilience, threaded through the request path:
    - {e admission control}: every request runs under a fresh
      per-request budget ([max_facts] caps the answers emitted, [max_ms]
      is a per-request deadline); a violated budget returns the sound
      prefix with a [partial] reply instead of an unbounded evaluation;
    - {e quarantine}: a request whose evaluation raises (an injected
      fault, or any defect) gets an [error] reply and its canonical
      query key is quarantined — later identical requests are refused
      with [quarantined] {e without being evaluated}, and the server
      keeps answering everything else. The table is read lock-free; the
      mark is check-and-set under one lock, so when duplicates of a
      poison query fault concurrently exactly one gets the [error] reply
      and the rest [quarantined] — the same counts at any worker count;
    - {e graceful drain}: when [stop] flips (the CLI's SIGTERM handler),
      reading stops, even with no input pending; lines already read are
      still served. A reader on the main domain waits in one blocking
      [read], which a process-directed SIGTERM interrupts (Linux
      delivers it to the main thread), so the drain starts at once. A
      reader on a spawned domain cannot be woken by that signal and
      waits on a select-guarded 50 ms tick instead, as the main domain
      does after an interrupted read until input arrives again. So
      [stop] flipped by anything other than a signal to the main thread
      is seen within 50 ms only by a ticking reader; a main-domain
      reader sees it once its [read] returns.

    The [server.request_s] latency histogram records {e every} outcome
    of a well-formed request (cache hit, success, fault, quarantine
    refusal), so the derived qps/percentiles describe the full served
    stream.

    Fault injection ([fault_plan]) arms the process-global probe hook.
    A plan with counted triggers mutates shared trigger state, so it is
    only allowed with [workers = 1] — {!run} raises [Invalid_argument]
    otherwise; a {!Resil.Fault.stateless} (always-fire) plan touches no
    state and is allowed under any worker count. *)

type config = {
  workers : int;  (** worker domains (>= 1) *)
  max_facts : int option;  (** per-request answer cap *)
  max_ms : float option;  (** per-request deadline, milliseconds *)
  fault_plan : Resil.Fault.plan;
      (** counted plans require [workers = 1]; stateless plans don't *)
}

type summary = {
  served : int;  (** replies emitted, including errors *)
  ok : int;
  partial : int;
  errors : int;  (** malformed requests plus evaluation faults *)
  quarantined : int;  (** requests refused by the quarantine table *)
  reply_hits : int;  (** replies served from the workers' reply caches *)
  drained : bool;  (** [stop] flipped before end of input *)
  wall_s : float;
  minor_words : float;  (** summed worker minor allocation, reading included *)
  major_words : float;  (** summed worker major allocation, reading included *)
}

(** [run ?report ?stop cfg snap ic oc] — serve until end of input (or
    drain). When [report] is given, each worker gets a child span
    ([worker-]{i i}) carrying one [request] span per request evaluated
    (a cache hit opens none), the
    workers' view registries (probe/join counters plus the
    [server.request_s] latency histogram) are absorbed into the report
    in worker order, and headline fields ([server.requests] etc.) plus
    the [server.qps]/[server.p50_ms]/[server.p99_ms] rate block are
    added. *)
val run :
  ?report:Obs.Report.t ->
  ?stop:bool ref ->
  config ->
  Engine.Snapshot.t ->
  in_channel ->
  out_channel ->
  summary
