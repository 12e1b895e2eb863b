(** Deterministic fault injection over the global probe hook; see the
    interface. *)

exception Injected of string * int
exception Fatal of string

let describe = function
  | Injected (point, hit) ->
      Printf.sprintf "injected fault at %s (hit %d)" point hit
  | e -> Printexc.to_string e

let attempt f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument msg ->
      raise (Fatal ("precondition violated: " ^ msg))
  | exception e -> Error (describe e)

let backoff ~base_ms ~max_ms k =
  Float.min max_ms (base_ms *. (2. ** float_of_int (k - 1)))

let retry ~attempts ~base_ms ~max_ms ~sleep f =
  let rec go k failures =
    match f k with
    | Ok v -> Ok (v, List.rev failures)
    | Error fault when k < attempts ->
        let ms = backoff ~base_ms ~max_ms k in
        if ms > 0. then sleep (ms /. 1000.);
        go (k + 1) ((k, fault, ms) :: failures)
    | Error fault -> Error (List.rev ((k, fault, 0.) :: failures))
  in
  go 1 []

type trigger =
  | At_hit of int
  | At_point of string * int
  | Every_point of string
  | After_ms of float

type plan = trigger list

let none : plan = []

let stateless (plan : plan) =
  plan <> []
  && List.for_all (function Every_point _ -> true | _ -> false) plan

(* The hook Fault itself installed, remembered so {!suspended} can lift
   and re-install it (with its counters intact) around recovery code. *)
let installed : (string -> unit) option ref = ref None

let install_hook f =
  installed := Some f;
  Obs.Probe.install f

let disarm () =
  installed := None;
  Obs.Probe.clear ()

let arm_seq ?(clock = Unix.gettimeofday) (plan : plan) =
  match plan with
  | [] -> disarm ()
  | _ when stateless plan ->
      (* no trigger state to advance: fire at every hit of any named
         point, forever. The counterless hook is safe to hit from
         concurrent domains. *)
      let names =
        List.filter_map
          (function Every_point n -> Some n | _ -> None)
          plan
      in
      install_hook (fun point ->
          if List.exists (String.equal point) names then
            raise (Injected (point, 1)))
  | _ ->
      let plan = Array.of_list plan in
      (* the live trigger's counters, reset each time the sequence
         advances: every trigger counts from the moment it went live *)
      let idx = ref 0 and hits = ref 0 and named = ref 0 in
      let t0 = ref (clock ()) in
      install_hook (fun point ->
          if !idx < Array.length plan then begin
            incr hits;
            let fire () =
              let hit = !hits in
              incr idx;
              hits := 0;
              named := 0;
              t0 := clock ();
              raise (Injected (point, hit))
            in
            match plan.(!idx) with
            | At_hit n -> if !hits >= n then fire ()
            | At_point (name, n) ->
                if String.equal point name then begin
                  incr named;
                  if !named >= n then fire ()
                end
            | Every_point name ->
                (* never advances: once live, it fires at every hit of
                   the named point, so later triggers stay dormant *)
                if String.equal point name then raise (Injected (point, 1))
            | After_ms ms ->
                if (clock () -. !t0) *. 1000. >= ms then fire ()
          end)

let suspended f =
  match !installed with
  | None -> f ()
  | Some h ->
      Obs.Probe.clear ();
      Fun.protect ~finally:(fun () -> Obs.Probe.install h) f

(* Fixed 31-bit LCG so plans are reproducible across platforms. *)
let random ~seed ?(attempts = 3) ?(max_hits = 500) () =
  let state = ref (seed land 0x3FFFFFFF) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  let max_hits = max 1 max_hits in
  List.init attempts (fun _ -> At_hit (1 + (next () mod max_hits)))

let to_string = function
  | [] -> "none"
  | plan ->
      String.concat ","
        (List.map
           (function
             | At_hit n -> Printf.sprintf "hit:%d" n
             | At_point (name, n) -> Printf.sprintf "point:%s:%d" name n
             | Every_point name -> Printf.sprintf "point:%s:*" name
             | After_ms ms -> Printf.sprintf "ms:%g" ms)
           plan)

let parse s =
  let s = String.trim s in
  if s = "" || s = "none" then Ok none
  else if String.length s >= 5 && String.sub s 0 5 = "seed:" then
    match String.split_on_char ':' s with
    | [ _; seed ] -> (
        match int_of_string_opt seed with
        | Some seed -> Ok (random ~seed ())
        | None -> Error (Printf.sprintf "fault plan: bad seed %S" seed))
    | [ _; seed; attempts ] -> (
        match (int_of_string_opt seed, int_of_string_opt attempts) with
        | Some seed, Some attempts when attempts >= 0 ->
            Ok (random ~seed ~attempts ())
        | _ -> Error (Printf.sprintf "fault plan: bad seed spec %S" s))
    | _ -> Error (Printf.sprintf "fault plan: bad seed spec %S" s)
  else
    let parse_trigger tok =
      match String.split_on_char ':' tok with
      | [ "hit"; n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 1 -> Ok (At_hit n)
          | _ -> Error (Printf.sprintf "fault plan: bad hit count %S" n))
      | [ "point"; name; "*" ] when name <> "" -> Ok (Every_point name)
      | [ "point"; name; n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 1 && name <> "" -> Ok (At_point (name, n))
          | _ -> Error (Printf.sprintf "fault plan: bad point trigger %S" tok))
      | [ "ms"; x ] -> (
          match float_of_string_opt x with
          | Some ms when ms >= 0. -> Ok (After_ms ms)
          | _ -> Error (Printf.sprintf "fault plan: bad deadline %S" x))
      | _ ->
          Error
            (Printf.sprintf
               "fault plan: unknown trigger %S (want hit:N, point:NAME:N or \
                ms:X)"
               tok)
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | tok :: rest -> (
          match parse_trigger (String.trim tok) with
          | Ok t -> go (t :: acc) rest
          | Error _ as e -> e)
    in
    go [] (String.split_on_char ',' s)
