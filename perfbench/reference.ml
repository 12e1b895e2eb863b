(* A reference server owned by the benchmark: it answers request lines
   over pipes the way the CLI does, with a fixed amount of work per line
   (a pointer chase through a 32 MiB ring, string hashing and small
   allocations). Nothing in it comes from the repository's libraries, so
   its round-trip time follows only the host: timed just before and just
   after each CLI round on the same core, it gives the speed factor the
   round's figures are scaled by. *)

let ring_slots = 1 lsl 22
let table_keys = 1 lsl 16

(* The child side: [bench.exe --reference-child]. *)
let child_main () =
  let rng = Random.State.make [| 23 |] in
  let order = Array.init ring_slots Fun.id in
  for i = ring_slots - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let ring = Array.make ring_slots 0 in
  for i = 0 to ring_slots - 1 do
    ring.(order.(i)) <- order.((i + 1) land (ring_slots - 1))
  done;
  let table = Hashtbl.create table_keys in
  for i = 0 to table_keys - 1 do
    Hashtbl.replace table (Printf.sprintf "key-%d" i) i
  done;
  print_endline "% reference: ready";
  try
    while true do
      let k = int_of_string (input_line stdin) in
      let j = ref (k land (ring_slots - 1)) and acc = ref 0 in
      for _ = 1 to 48 do
        j := ring.(!j)
      done;
      for i = 0 to 15 do
        acc := !acc + Hashtbl.find table (Printf.sprintf "key-%d" ((!j + (i * 4099)) land (table_keys - 1)))
      done;
      print_string (Printf.sprintf "%d ok %d\n" k (!acc + !j));
      flush stdout
    done
  with End_of_file -> ()

let start () =
  let c = Cli.spawn Sys.executable_name [ "--reference-child" ] in
  ignore (Cli.await_ready c "% reference: ready");
  c

(* Mean round-trip time, in ns, of [n] closed-loop requests. *)
let block (c : Cli.child) n =
  let t0 = Trace.now_ns () in
  for k = 1 to n do
    output_string c.Cli.to_child (string_of_int (k * 7919));
    output_char c.Cli.to_child '\n';
    flush c.Cli.to_child;
    match input_line c.Cli.from_child with
    | _ -> ()
    | exception End_of_file -> failwith "the reference server exited"
  done;
  Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. float_of_int n
