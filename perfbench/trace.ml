(* In-memory spans for the traced pass.

   A span is recorded by the benchmark around one call into a layer:
   name, the request (or mutation) id it serves, its parent span, start
   and end on the monotonic nanosecond clock, and the minor words the
   domain allocated in between. Spans stay in memory and are written
   out once, as Chrome trace-event JSON, when the run ends. A disabled
   recorder runs the wrapped call and records nothing. *)

let now_ns () = Monotonic_clock.now ()

type span = {
  name : string;
  req : int;  (** request / mutation id; 0 for set-up spans *)
  parent : int;  (** index of the enclosing span, -1 at top level *)
  t0 : int64;
  mutable t1 : int64;
  w0 : float;
  mutable w1 : float;
}

type t = {
  enabled : bool;
  mutable spans : span array;
  mutable n : int;
  mutable open_ : int;  (** innermost open span, -1 when none *)
}

let create ~enabled = { enabled; spans = [||]; n = 0; open_ = -1 }
let off = create ~enabled:false

let dummy = { name = ""; req = 0; parent = -1; t0 = 0L; t1 = 0L; w0 = 0.; w1 = 0. }

let span t ?(req = 0) name f =
  if not t.enabled then f ()
  else begin
    if t.n = Array.length t.spans then begin
      let grown = Array.make (max 1024 (2 * t.n)) dummy in
      Array.blit t.spans 0 grown 0 t.n;
      t.spans <- grown
    end;
    let i = t.n in
    let parent = t.open_ in
    t.n <- i + 1;
    let w0 = Gc.minor_words () in
    let s = { name; req; parent; t0 = now_ns (); t1 = 0L; w0; w1 = 0. } in
    t.spans.(i) <- s;
    t.open_ <- i;
    let finish () =
      s.t1 <- now_ns ();
      s.w1 <- Gc.minor_words ();
      t.open_ <- parent
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let dur s = Int64.to_float (Int64.sub s.t1 s.t0)

(* Per span name: count, total ns, self ns (duration minus the part its
   children cover — children never overlap, the pass is sequential) and
   inclusive minor words. *)
type agg = { mutable count : int; mutable total_ns : float; mutable self_ns : float; mutable words : float }

let aggregate t =
  let tbl = Hashtbl.create 16 in
  let get name =
    match Hashtbl.find_opt tbl name with
    | Some a -> a
    | None ->
        let a = { count = 0; total_ns = 0.; self_ns = 0.; words = 0. } in
        Hashtbl.add tbl name a;
        a
  in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    let a = get s.name in
    a.count <- a.count + 1;
    a.total_ns <- a.total_ns +. dur s;
    a.self_ns <- a.self_ns +. dur s;
    a.words <- a.words +. (s.w1 -. s.w0);
    if s.parent >= 0 then begin
      let p = get t.spans.(s.parent).name in
      p.self_ns <- p.self_ns -. dur s
    end
  done;
  tbl

let find tbl name =
  match Hashtbl.find_opt tbl name with
  | Some a -> a
  | None -> { count = 0; total_ns = 0.; self_ns = 0.; words = 0. }

(* The measured cost of one empty span pair (enter + exit, both clock
   reads and the allocation probes), median of 9 batches. *)
let empty_pair_ns () =
  let batch = 20_000 in
  let t = create ~enabled:true in
  let one () =
    t.n <- 0;
    let a = now_ns () in
    for _ = 1 to batch do
      span t "empty" ignore
    done;
    Int64.to_float (Int64.sub (now_ns ()) a) /. float_of_int batch
  in
  let xs = Array.init 9 (fun _ -> one ()) in
  Array.sort compare xs;
  xs.(4)

(* Chrome trace-event JSON ("X" complete events, microsecond
   timestamps), which Perfetto and chrome://tracing open directly. Spans
   of requests past [max_req] are left out to keep the file small. *)
let write_chrome ?(max_req = max_int) t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
      let base = if t.n > 0 then t.spans.(0).t0 else 0L in
      let first = ref true in
      for i = 0 to t.n - 1 do
        let s = t.spans.(i) in
        if s.req <= max_req then begin
        if not !first then output_char oc ',';
        first := false;
        Printf.fprintf oc
          "\n{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"minor_words\":%.0f}}"
          s.name
          (match String.index_opt s.name '.' with
          | Some k -> String.sub s.name 0 k
          | None -> s.name)
          (Int64.to_float (Int64.sub s.t0 base) /. 1e3)
          (dur s /. 1e3) s.req (s.w1 -. s.w0)
        end
      done;
      output_string oc "\n]}\n")
