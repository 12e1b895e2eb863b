(** Write-ahead mutation log; see the interface for the format and the
    durability contract. *)

module J = Obs.Json

type record = Op of int * Incr.op | Quarantine of int

type t = {
  dir : string;
  mutable fd : Unix.file_descr;
  mutable oc : out_channel;
  mutable seg : string;  (* path of the open segment *)
}

(* ---- file naming ------------------------------------------------------ *)

let image_name seq = Printf.sprintf "image-%d.json" seq
let segment_name seq = Printf.sprintf "wal-%d.log" seq
let ( / ) = Filename.concat

(* [parse_name ~prefix ~suffix name] — the sequence number of a WAL file
   name, [None] for anything else (including [.tmp] leftovers). *)
let parse_name ~prefix ~suffix name =
  let lp = String.length prefix and ls = String.length suffix in
  let l = String.length name in
  if l > lp + ls && String.sub name 0 lp = prefix && String.sub name (l - ls) ls = suffix
  then int_of_string_opt (String.sub name lp (l - lp - ls))
  else None

let scan dir =
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  let images = ref [] and segs = ref [] in
  Array.iter
    (fun name ->
      (match parse_name ~prefix:"image-" ~suffix:".json" name with
      | Some seq -> images := seq :: !images
      | None -> ());
      match parse_name ~prefix:"wal-" ~suffix:".log" name with
      | Some seq -> segs := seq :: !segs
      | None -> ())
    entries;
  ( List.sort (fun a b -> compare (b : int) a) !images (* newest first *),
    List.sort compare !segs (* oldest first *) )

let is_empty ~dir = fst (scan dir) = []

(* ---- record codec ----------------------------------------------------- *)

module C = Checkpoint

let ( let* ) = Result.bind

let record_to_json = function
  | Op (seq, op) ->
      let k, f =
        match op with Incr.Insert f -> ("+", f) | Incr.Delete f -> ("-", f)
      in
      J.Obj (("s", J.Int seq) :: ("k", J.String k) :: C.bare_fact_fields f)
  | Quarantine seq -> J.Obj [ ("s", J.Int seq); ("k", J.String "q") ]

let record_of_json j =
  let* seq = C.field "s" C.int_f j in
  let op mk = Result.map (fun f -> Op (seq, mk f)) (C.bare_fact_of_json j) in
  match C.field "k" C.str_f j with
  | Ok "q" -> Ok (Quarantine seq)
  | Ok "+" -> op (fun f -> Incr.Insert f)
  | Ok "-" -> op (fun f -> Incr.Delete f)
  | _ -> Error "bad record kind"

(* ---- image codec ------------------------------------------------------ *)

let image_schema = "guarded-serve-image"
let image_version = 2

let ledger_entry_to_json ((rule, cs), body, outs) =
  J.Obj
    [
      ("r", J.Int rule);
      ("k", J.List (List.map C.const_to_json cs));
      ("b", J.List (List.map C.bare_fact_to_json body));
      ("o", J.List (List.map C.bare_fact_to_json outs));
    ]

let ledger_entry_of_json j =
  let* rule = C.field "r" C.int_f j in
  let* cs =
    C.list_field "k"
      (function
        | J.Null -> Error "null trigger-key slot"
        | c -> C.const_of_json c)
      j
  in
  let* body = C.list_field "b" C.bare_fact_of_json j in
  let* outs = C.list_field "o" C.bare_fact_of_json j in
  Ok ((rule, cs), body, outs)

(* The base and the ledger name only facts of [facts], and trigger keys
   only symbols of [syms]: {!Incr.of_image} finds every one of them in
   the rebuilt store, and would otherwise intern fresh ids for them. *)
let check_closed ~facts ~syms base ledger =
  let stored = Hashtbl.create (List.length facts) in
  List.iter (fun (f, _) -> Hashtbl.replace stored f ()) facts;
  let interned = Hashtbl.create (List.length syms) in
  List.iter (fun c -> Hashtbl.replace interned c ()) syms;
  let stored_all = List.for_all (Hashtbl.mem stored) in
  let interned_all = List.for_all (Hashtbl.mem interned) in
  if not (stored_all base) then Error "base fact outside facts"
  else if
    not (List.for_all (fun (_, b, o) -> stored_all b && stored_all o) ledger)
  then Error "ledger fact outside facts"
  else if not (List.for_all (fun ((_, cs), _, _) -> interned_all cs) ledger)
  then Error "trigger-key constant outside syms"
  else Ok ()

let image_to_json ~seq (im : Incr.image) =
  J.Obj
    [
      ("schema", J.String image_schema);
      ("version", J.Int image_version);
      ("seq", J.Int seq);
      ("level", J.Int im.im_level);
      ("null_count", J.Int im.im_null_count);
      ("counters", C.counters_to_json im.im_counters);
      ("base", J.List (List.map C.bare_fact_to_json im.im_base));
      (* interning order is load-bearing — never sort these lists *)
      ("syms", J.List (List.map C.const_to_json im.im_syms));
      ("preds", J.List (List.map (fun p -> J.String p) im.im_preds));
      (* storage order is load-bearing — never sort this list *)
      ("facts", J.List (List.map C.fact_to_json im.im_facts));
      ("ledger", J.List (List.map ledger_entry_to_json im.im_ledger));
    ]

let image_of_json j =
  let* () = C.header ~schema:image_schema ~version:image_version j in
  let* seq = C.field "seq" C.int_f j in
  let* level = C.field "level" C.int_f j in
  let* null_count = C.field "null_count" C.int_f j in
  let* counters = C.counters_field j in
  let* base = C.list_field "base" C.bare_fact_of_json j in
  let* syms = C.list_field "syms" C.const_of_json j in
  let* preds =
    C.list_field "preds"
      (fun e -> Option.to_result ~none:"bad predicate" (C.str_f e))
      j
  in
  let* facts = C.list_field "facts" C.fact_of_json j in
  let* ledger = C.list_field "ledger" ledger_entry_of_json j in
  (* every null of the store is interned, so [syms] holds them all *)
  let* () = C.check_null_count null_count syms in
  let* () = check_closed ~facts ~syms base ledger in
  Ok
    ( seq,
      {
        Incr.im_facts = facts;
        im_base = base;
        im_ledger = ledger;
        im_syms = syms;
        im_preds = preds;
        im_level = level;
        im_null_count = null_count;
        im_counters = counters;
      } )

(* ---- writing ---------------------------------------------------------- *)

let write_image path ~seq image = C.write_atomic path (image_to_json ~seq image)

let open_segment path =
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  (fd, Unix.out_channel_of_descr fd)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ~dir image =
  mkdir_p dir;
  (match scan dir with
  | [], [] -> ()
  | _ ->
      invalid_arg
        (Printf.sprintf
           "wal: %s already holds a WAL — pass --recover to resume it, or \
            point --wal at a fresh directory"
           dir));
  write_image (dir / image_name 0) ~seq:0 image;
  let seg = dir / segment_name 0 in
  let fd, oc = open_segment seg in
  { dir; fd; oc; seg }

let reopen ~dir =
  let images, segs = scan dir in
  match images with
  | [] -> invalid_arg (Printf.sprintf "wal: %s holds no image" dir)
  | newest_image :: _ ->
      let base =
        match List.rev segs with seq :: _ -> seq | [] -> newest_image
      in
      let seg = dir / segment_name base in
      let fd, oc = open_segment seg in
      { dir; fd; oc; seg }

let append t record =
  (* crash window 1: nothing written yet — the mutation simply never
     reached the log *)
  Obs.Probe.hit "wal.append";
  let payload = J.to_string (record_to_json record) in
  let line = Crc32.to_hex (Crc32.string payload) ^ " " ^ payload in
  output_string t.oc line;
  flush t.oc;
  (* crash window 2: the body is on disk without its newline — a torn
     record, truncated by recovery *)
  Obs.Probe.hit "wal.fsync";
  output_char t.oc '\n';
  flush t.oc;
  Unix.fsync t.fd

let rotate t ~seq image =
  write_image (t.dir / image_name seq) ~seq image;
  close_out_noerr t.oc;
  let seg = t.dir / segment_name seq in
  let fd, oc = open_segment seg in
  t.fd <- fd;
  t.oc <- oc;
  t.seg <- seg;
  let images, segs = scan t.dir in
  List.iter
    (fun s -> if s < seq then Sys.remove (t.dir / image_name s))
    images;
  List.iter (fun s -> if s < seq then Sys.remove (t.dir / segment_name s)) segs

let close t = close_out_noerr t.oc

(* ---- recovery --------------------------------------------------------- *)

type recovery = {
  rec_image : Incr.image;
  rec_image_seq : int;
  rec_ops : (int * Incr.op) list;
  rec_quarantined : int list;
  rec_last_seq : int;
  rec_truncated : int;
  rec_skipped_images : int;
}

let load_image path =
  Result.map_error C.error_message (C.decode_file ~tag:"wal" image_of_json path)

let decode_line line =
  match String.index_opt line ' ' with
  | None -> Error "wal: record without checksum"
  | Some sp -> (
      let crc = String.sub line 0 sp in
      let payload = String.sub line (sp + 1) (String.length line - sp - 1) in
      match Crc32.of_hex crc with
      | None -> Error "wal: malformed checksum"
      | Some crc ->
          if crc <> Crc32.string payload then Error "wal: checksum mismatch"
          else Result.bind (J.parse payload) record_of_json)

(* Read one segment. Only the final line of the final segment may be
   torn (missing newline or failing its checksum): it is physically
   truncated away and counted. Anything else malformed is corruption. *)
let read_segment ~last path =
  let* contents = Result.map_error (( ^ ) "wal: ") (C.read_file path) in
  let n = String.length contents in
  let records = ref [] and truncated = ref 0 in
  let err = ref None in
  let pos = ref 0 and lineno = ref 0 in
  while !err = None && !pos < n do
    incr lineno;
    let nl = String.index_from_opt contents !pos '\n' in
    let start = !pos in
    let line, complete =
      match nl with
      | Some e ->
          pos := e + 1;
          (String.sub contents start (e - start), true)
      | None ->
          pos := n;
          (String.sub contents start (n - start), false)
    in
    if line <> "" || complete then
      match decode_line line with
      | Ok r when complete -> records := r :: !records
      | Ok _ | Error _ ->
          if last && !pos >= n then begin
            (* torn tail: drop it from the file so appends resume on a
               clean boundary *)
            (try Unix.truncate path start with Unix.Unix_error _ -> ());
            incr truncated
          end
          else
            err :=
              Some
                (Printf.sprintf "wal: corrupt record at %s:%d" path !lineno)
  done;
  match !err with
  | Some e -> Error e
  | None -> Ok (List.rev !records, !truncated)

let recover ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "wal: no such directory %s" dir)
  else
    let images, segs = scan dir in
    (* newest image that decodes; corrupt newer ones are fallen past *)
    let rec pick skipped = function
      | [] -> Error "wal: no image decodes"
      | seq :: rest -> (
          match load_image (dir / image_name seq) with
          | Ok (_, im) -> Ok (seq, im, skipped)
          | Error msg -> if rest = [] then Error msg else pick (skipped + 1) rest)
    in
    match pick 0 images with
    | Error _ as e -> e
    | Ok (image_seq, image, skipped) -> (
        let rec read_all acc truncated = function
          | [] -> Ok (List.concat (List.rev acc), truncated)
          | seg :: rest -> (
              match
                read_segment ~last:(rest = []) (dir / segment_name seg)
              with
              | Ok (records, t) -> read_all (records :: acc) (truncated + t) rest
              | Error _ as e -> e)
        in
        match read_all [] 0 segs with
        | Error _ as e -> e
        | Ok (records, truncated) ->
            let quarantined =
              List.filter_map
                (function Quarantine s -> Some s | Op _ -> None)
                records
            in
            let last_seq =
              List.fold_left
                (fun acc r ->
                  max acc (match r with Op (s, _) | Quarantine s -> s))
                image_seq records
            in
            let ops =
              List.sort
                (fun (a, _) (b, _) -> compare (a : int) b)
                (List.filter_map
                   (function
                     | Op (s, op)
                       when s > image_seq && not (List.mem s quarantined) ->
                         Some (s, op)
                     | _ -> None)
                   records)
            in
            Ok
              {
                rec_image = image;
                rec_image_seq = image_seq;
                rec_ops = ops;
                rec_quarantined = List.sort compare quarantined;
                rec_last_seq = last_seq;
                rec_truncated = truncated;
                rec_skipped_images = skipped;
              })
