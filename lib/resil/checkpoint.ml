(** Checkpoint (de)serialisation and the codec every durable artifact
    shares; see the interface for the schema. *)

open Relational
module J = Obs.Json

type t = Engine.Saturate.snapshot

let schema = "guarded-chase-checkpoint"
let version = 1

(* ---- the shared codec ------------------------------------------------- *)

let ( let* ) = Result.bind

let field name extract j =
  match Option.map extract (J.member name j) with
  | Some (Some v) -> Ok v
  | _ -> Error (Printf.sprintf "missing or bad field %S" name)

let int_f = function J.Int i -> Some i | _ -> None
let str_f = function J.String s -> Some s | _ -> None
let bool_f = function J.Bool b -> Some b | _ -> None

let rec decode_all decode acc = function
  | [] -> Ok (List.rev acc)
  | e :: rest ->
      let* v = decode e in
      decode_all decode (v :: acc) rest

let list_field name decode j =
  match J.member name j with
  | Some (J.List es) -> decode_all decode [] es
  | _ -> Error (Printf.sprintf "missing or bad field %S" name)

let counters_to_json cs = J.Obj (List.map (fun (k, v) -> (k, J.Int v)) cs)

let counters_field j =
  match J.member "counters" j with
  | Some (J.Obj kvs) ->
      decode_all
        (function
          | k, J.Int v -> Ok (k, v)
          | k, _ -> Error (Printf.sprintf "bad counter %S" k))
        [] kvs
  | _ -> Error "missing or bad field \"counters\""

let header ~schema ~version j =
  let* sch = field "schema" str_f j in
  let* () =
    if sch = schema then Ok ()
    else Error (Printf.sprintf "unknown schema %S" sch)
  in
  let* ver = field "version" int_f j in
  if ver = version then Ok ()
  else Error (Printf.sprintf "unsupported version %d" ver)

let const_to_json = function
  | Term.Named s -> J.String s
  | Term.Null i -> J.Obj [ ("n", J.Int i) ]

let const_of_json = function
  | J.String s -> Ok (Term.Named s)
  | J.Obj [ ("n", J.Int i) ] -> Ok (Term.Null i)
  | j -> Error (Printf.sprintf "bad constant %s" (J.to_string j))

let bare_fact_fields f =
  [
    ("p", J.String (Fact.pred f));
    ("a", J.List (List.map const_to_json (Fact.args f)));
  ]

let bare_fact_to_json f = J.Obj (bare_fact_fields f)

let bare_fact_of_json j =
  let* p = field "p" str_f j in
  let* args = list_field "a" const_of_json j in
  Ok (Fact.make p args)

let fact_to_json (f, l) =
  J.Obj
    [
      ("p", J.String (Fact.pred f));
      ("l", J.Int l);
      ("a", J.List (List.map const_to_json (Fact.args f)));
    ]

let fact_of_json j =
  let* f = bare_fact_of_json j in
  let* l = field "l" int_f j in
  if l < 0 || l > Engine.Index.max_level then
    Error (Printf.sprintf "s-level %d out of range" l)
  else Ok (f, l)

let check_null_count null_count consts =
  let top =
    List.fold_left
      (fun m -> function Term.Null i -> max m i | Term.Named _ -> m)
      0 consts
  in
  if top <= null_count then Ok ()
  else
    Error
      (Printf.sprintf "null_count %d is below the null %d it holds" null_count
         top)

type error = Io of string | Corrupt of string

let error_message = function Io msg | Corrupt msg -> msg

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | contents -> Ok contents
      | exception Sys_error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | exception End_of_file -> Error (Printf.sprintf "%s: short read" path))

let decode_file ~tag decode path =
  match read_file path with
  | Error msg -> Error (Io (Printf.sprintf "%s: %s" tag msg))
  | Ok contents ->
      Result.map_error
        (fun msg -> Corrupt (Printf.sprintf "%s: %s (%s)" tag msg path))
        (Result.bind (J.parse contents) decode)

let write_atomic path j =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      J.to_channel oc j;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path

(* ---- checkpoints ------------------------------------------------------ *)

(* Checkpoints always name the one engine, "indexed". Older ones may name
   a since-removed engine: "parallel" (byte-identical to the indexed
   engine at every pass boundary) or "naive" (same s-levels, and a
   snapshot holds nothing else engine-specific). Both resume as is. *)
let check_engine = function
  | "indexed" | "parallel" | "naive" -> Ok ()
  | s -> Error (Printf.sprintf "unknown engine %S" s)

let policy_to_string = function
  | Engine.Saturate.Oblivious -> "oblivious"
  | Engine.Saturate.Restricted -> "restricted"

let policy_of_string = function
  | "oblivious" -> Ok Engine.Saturate.Oblivious
  | "restricted" -> Ok Engine.Saturate.Restricted
  | s -> Error (Printf.sprintf "unknown policy %S" s)

let to_json (s : t) =
  let facts =
    List.sort
      (fun (f1, l1) (f2, l2) ->
        match compare (l1 : int) l2 with 0 -> Fact.compare f1 f2 | c -> c)
      s.snap_facts
  in
  J.Obj
    [
      ("schema", J.String schema);
      ("version", J.Int version);
      ("engine", J.String "indexed");
      ("policy", J.String (policy_to_string s.snap_policy));
      ("level", J.Int s.snap_level);
      ("saturated", J.Bool s.snap_saturated);
      ("null_count", J.Int s.snap_null_count);
      ("triggers_fired", J.Int s.snap_triggers_fired);
      ("triggers_dismissed", J.Int s.snap_triggers_dismissed);
      ( "counters",
        counters_to_json
          (List.sort (fun (a, _) (b, _) -> String.compare a b) s.snap_counters)
      );
      ("facts", J.List (List.map fact_to_json facts));
    ]

let of_json j =
  let* () = header ~schema ~version j in
  let* () = Result.bind (field "engine" str_f j) check_engine in
  let* policy = Result.bind (field "policy" str_f j) policy_of_string in
  let* level = field "level" int_f j in
  let* saturated = field "saturated" bool_f j in
  let* null_count = field "null_count" int_f j in
  let* fired = field "triggers_fired" int_f j in
  let* dismissed = field "triggers_dismissed" int_f j in
  let* counters = counters_field j in
  let* facts = list_field "facts" fact_of_json j in
  let* () =
    check_null_count null_count
      (List.concat_map (fun (f, _) -> Fact.args f) facts)
  in
  Ok
    {
      Engine.Saturate.snap_policy = policy;
      snap_level = level;
      snap_saturated = saturated;
      snap_null_count = null_count;
      snap_triggers_fired = fired;
      snap_triggers_dismissed = dismissed;
      snap_facts = facts;
      snap_counters = counters;
    }

let save path (s : t) = write_atomic path (to_json s)
let load = decode_file ~tag:"checkpoint" of_json
