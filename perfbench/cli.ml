(* Driving the built guarded_cli as a child process: one closed-loop
   client (a single outstanding request) over the child's stdin/stdout
   pipes, timed on the monotonic nanosecond clock. *)

external allowed_cpus : unit -> int list = "perfbench_allowed_cpus"
external pin : int -> int -> bool = "perfbench_pin"

(* The client, the CLI and the in-process pass all run on one core, the
   last this process may use. With one request outstanding, client and
   CLI never run at once, so sharing a core costs no throughput; each
   hand-over is then a local context switch instead of a wake-up of an
   idle core, whose cost on a shared virtual machine swings from run to
   run (on a 2-vCPU VM, split cores gave half the throughput and a wider
   spread). *)
let core = lazy (match List.rev (allowed_cpus ()) with c :: _ -> Some c | [] -> None)

let pin_self () = Option.iter (fun c -> ignore (pin 0 c)) (Lazy.force core)

type child = {
  pid : int;
  to_child : out_channel;
  from_child : in_channel;
  mutable reaped : Unix.process_status option;  (** set when a pause reaps it *)
}

let spawn exe args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) in_r out_w Unix.stderr
  in
  Option.iter (fun c -> ignore (pin pid c)) (Lazy.force core);
  Unix.close in_r;
  Unix.close out_w;
  {
    pid;
    to_child = Unix.out_channel_of_descr in_w;
    from_child = Unix.in_channel_of_descr out_r;
    reaped = None;
  }

(* The child's peak RSS so far, in MiB: VmHWM of its own address space.
   wait4's ru_maxrss cannot be used — a spawned child's figure starts
   from the parent's RSS at exec time. *)
let peak_rss_mb c =
  match open_in (Printf.sprintf "/proc/%d/status" c.pid) with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | l when String.starts_with ~prefix:"VmHWM:" l ->
                Scanf.sscanf l "VmHWM: %d kB" (fun kib -> float_of_int kib /. 1024.)
            | _ -> go ()
            | exception End_of_file -> nan
          in
          go ())

(* Close the child's input, drain its output, reap it: the exit code.
   The drained lines go to [on_line]. *)
let finish ?(on_line = ignore) c =
  close_out_noerr c.to_child;
  (try
     while true do
       on_line (input_line c.from_child)
     done
   with End_of_file -> ());
  close_in_noerr c.from_child;
  let status = match c.reaped with Some st -> st | None -> snd (Unix.waitpid [] c.pid) in
  match status with
  | Unix.WEXITED code -> code
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> -s

let kill c =
  if c.reaped = None then (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (finish c)

(* Stop the child, call [f] while it is stopped, let it run again. A
   child that exits before it stops is reaped here: [f] is not called. *)
let while_stopped c f =
  Unix.kill c.pid Sys.sigstop;
  match snd (Unix.waitpid [ Unix.WUNTRACED ] c.pid) with
  | Unix.WSTOPPED _ ->
      Fun.protect ~finally:(fun () -> Unix.kill c.pid Sys.sigcont) (fun () -> Some (f ()))
  | st ->
      c.reaped <- Some st;
      None

let ns_to_s ns = Int64.to_float ns /. 1e9

(* Read lines until one starts with [prefix]: the CLI's ready line. *)
let await_ready c prefix =
  let rec go () =
    match input_line c.from_child with
    | line when String.starts_with ~prefix line -> line
    | _ -> go ()
    | exception End_of_file -> failwith ("the CLI exited before printing " ^ prefix)
  in
  go ()

type round = {
  setup_s : float;
  ops : int;  (** operations completed inside the measured window *)
  measured_s : float;
  lat_ns : float array;  (** one sample per measured operation *)
  rss_mb : float;
  attempted : int;  (** every operation sent, warm-up included *)
  failed : int;  (** error / partial / quarantined / missing replies *)
  wrong : string option;  (** first reply that differs from the expected *)
  done_ns : float array;
      (** when each measured operation completed, from the phase's start,
          pauses excluded *)
  cuts : (int * float) array;
      (** (operations completed, value [between] returned) at each pause *)
}

let sample_buffer () = ref (Array.make 4096 0.), ref 0

let push (buf, n) x =
  if !n = Array.length !buf then begin
    let g = Array.make (2 * !n) 0. in
    Array.blit !buf 0 g 0 !n;
    buf := g
  end;
  !buf.(!n) <- x;
  incr n

let samples (buf, n) = Array.sub !buf 0 !n

let is_failure reply =
  match String.index_opt reply ' ' with
  | None -> true
  | Some i ->
      let rest = String.sub reply (i + 1) (String.length reply - i - 1) in
      not (String.starts_with ~prefix:"ok " rest)

(* One [server] process: spawn, wait for the ready line (set-up), then
   send [stream] lines closed-loop for [warmup_s + phase_s]; only
   requests sent after the warm-up count towards throughput and
   latency. Every [every_s] of the measured phase the loop pauses to
   call [between]; the pauses do not count towards the phase. Every
   reply is checked against [expected]. *)
let query_round ~exe ~args ~stream ~expected ~warmup_s ~phase_s ~every_s ~between =
  let t_spawn = Trace.now_ns () in
  let c = spawn exe args in
  match
    let ready = await_ready c "% server: store " in
    if not (String.starts_with ~prefix:"% server: store saturated" ready) then
      failwith ("the server store is not saturated: " ^ ready);
    let t_ready = Trace.now_ns () in
    let measure_from = Int64.add t_ready (Int64.of_float (warmup_s *. 1e9)) in
    let lat = sample_buffer () and done_ns = sample_buffer () in
    let cuts = ref [] and paused = ref 0. and last_cut = ref 0. in
    let n = Array.length stream in
    let sent = ref 0 and failed = ref 0 and wrong = ref None in
    let elapsed = ref 0. in
    while !elapsed < phase_s *. 1e9 do
      let k = !sent mod n in
      let t0 = Trace.now_ns () in
      output_string c.to_child stream.(k);
      output_char c.to_child '\n';
      flush c.to_child;
      let reply = try Some (input_line c.from_child) with End_of_file -> None in
      let t1 = Trace.now_ns () in
      incr sent;
      (match reply with
      | None -> failwith "the server closed its output mid-run"
      | Some reply ->
          if is_failure reply then incr failed;
          if
            !wrong = None
            && reply <> string_of_int !sent ^ " " ^ expected.(k)
          then wrong := Some (Printf.sprintf "request %d %S: got %S" !sent stream.(k) reply));
      if Int64.compare t0 measure_from >= 0 then begin
        elapsed := Int64.to_float (Int64.sub t1 measure_from) -. !paused;
        push lat (Int64.to_float (Int64.sub t1 t0));
        push done_ns !elapsed;
        if !elapsed -. !last_cut >= every_s *. 1e9 && !elapsed < phase_s *. 1e9 then begin
          let p0 = Trace.now_ns () in
          cuts := (!(snd done_ns), between ()) :: !cuts;
          last_cut := !elapsed;
          paused := !paused +. Int64.to_float (Int64.sub (Trace.now_ns ()) p0)
        end
      end
    done;
    let lat_ns = samples lat in
    let rss_mb = peak_rss_mb c in
    let code = finish c in
    if code <> 0 then failwith (Printf.sprintf "the server exited with code %d" code);
    {
      setup_s = ns_to_s (Int64.sub t_ready t_spawn);
      ops = Array.length lat_ns;
      measured_s = !elapsed /. 1e9;
      lat_ns;
      rss_mb;
      attempted = !sent;
      failed = !failed;
      wrong = !wrong;
      done_ns = samples done_ns;
      cuts = Array.of_list (List.rev !cuts);
    }
  with
  | r -> r
  | exception e ->
      kill c;
      raise e

(* One [serve] process over the whole mutation log: set-up ends at the
   ready line; the measured phase runs from there to the last
   mutation's effect line, and each mutation's latency is the gap
   between consecutive effect lines. Every [every_s] of the measured
   phase serve is stopped while [between] runs; the pauses do not count
   towards the phase. The summary's fact count and the printed final
   instance are checked against [final_facts]. *)
let mutate_round ~exe ~args ~effects ~final_facts ~every_s ~between =
  let t_spawn = Trace.now_ns () in
  let c = spawn exe args in
  match
    ignore (await_ready c "% serve: store saturated");
    let t_ready = Trace.now_ns () in
    let lat = sample_buffer () and done_ns = sample_buffer () in
    let n = Array.length effects in
    let failed = ref 0 and wrong = ref None in
    let cuts = ref [] and paused = ref 0. and last_cut = ref 0. and prev = ref 0. in
    for k = 0 to n - 1 do
      let line =
        try input_line c.from_child
        with End_of_file -> failwith "serve exited before the last mutation"
      in
      let elapsed = Int64.to_float (Int64.sub (Trace.now_ns ()) t_ready) -. !paused in
      push lat (elapsed -. !prev);
      push done_ns elapsed;
      prev := elapsed;
      if elapsed -. !last_cut >= every_s *. 1e9 && k < n - 1 && c.reaped = None then begin
        let p0 = Trace.now_ns () in
        Option.iter (fun r -> cuts := (k + 1, r) :: !cuts) (while_stopped c between);
        last_cut := elapsed;
        paused := !paused +. Int64.to_float (Int64.sub (Trace.now_ns ()) p0)
      end;
      if line <> effects.(k) then begin
        incr failed;
        if !wrong = None then
          wrong := Some (Printf.sprintf "mutation %d: want %S, got %S" (k + 1) effects.(k) line)
      end
    done;
    (* the summary line, then the final instance: the peak is read
       while serve still holds its store *)
    let summary = try input_line c.from_child with End_of_file -> "" in
    let rss_mb = peak_rss_mb c in
    let facts = ref 0 in
    let code =
      finish c ~on_line:(fun l -> if l <> "" && l.[0] <> '%' then incr facts)
    in
    if code <> 0 then failwith (Printf.sprintf "serve exited with code %d" code);
    let summary_facts =
      try
        Scanf.sscanf summary
          "%% serve: %d mutations applied (%_d inserts, %_d deletes, %_d no-ops), %d facts"
          (fun _ f -> f)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> -1
    in
    let wrong =
      if !wrong <> None then !wrong
      else if summary_facts <> final_facts || !facts <> final_facts then
        Some
          (Printf.sprintf "final store: want %d facts, summary says %d, %d printed"
             final_facts summary_facts !facts)
      else None
    in
    let lat_ns = samples lat in
    {
      setup_s = ns_to_s (Int64.sub t_ready t_spawn);
      ops = n;
      measured_s = !prev /. 1e9;
      lat_ns;
      rss_mb;
      attempted = n;
      failed = !failed;
      wrong;
      done_ns = samples done_ns;
      cuts = Array.of_list (List.rev !cuts);
    }
  with
  | r -> r
  | exception e ->
      kill c;
      raise e
