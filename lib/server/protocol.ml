(** Wire protocol; see the interface for the grammar and reply formats. *)

open Relational

type verb = Answers | Count

type request = { id : int; verb : verb; key : string Lazy.t; query : Ucq.t }

type line =
  | Request of request
  | Empty
  | Malformed of string

let verb_str = function Answers -> "answers" | Count -> "count"

(* one-line rendering for keys and error payloads: the box layout of the
   pretty-printers must not leak newlines into a single-line protocol *)
let oneline s =
  String.concat " "
    (List.filter
       (fun w -> w <> "")
       (String.split_on_char ' '
          (String.map (function '\n' | '\r' | '\t' -> ' ' | c -> c) s)))

let parse_line ~id raw =
  let s = String.trim raw in
  if s = "" || s.[0] = '%' then Empty
  else
    let verb, rest =
      match String.index_opt s ' ' with
      | None -> (s, "")
      | Some i ->
          (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    in
    match
      (match verb with
      | "answers" -> Some Answers
      | "count" -> Some Count
      | _ -> None)
    with
    | None -> Malformed (Fmt.str "unknown verb %S (want answers|count)" verb)
    | Some verb -> (
        match Syntax.Parser.parse rest with
        | exception (Syntax.Parser.Error (msg, _, c) | Syntax.Lexer.Error (msg, _, c))
          ->
            Malformed (Fmt.str "column %d: %s" c msg)
        | p ->
            if p.Syntax.Parser.tgds <> [] || p.Syntax.Parser.facts <> [] then
              Malformed "a request may contain only query clauses"
            else (
              match p.Syntax.Parser.queries with
              | [ (_, q) ] ->
                  let key =
                    lazy
                      (Fmt.str "%s %s" (verb_str verb)
                         (oneline (Fmt.str "%a" Ucq.pp q)))
                  in
                  Request { id; verb; key; query = q }
              | [] -> Malformed "no query clause in request"
              | qs ->
                  Malformed
                    (Fmt.str "one query name per request (got %s)"
                       (String.concat ", " (List.map fst qs)))))

let key r = Lazy.force r.key

(* rendering avoids Format on the per-tuple path: replies for scan-style
   queries carry hundreds of tuples, and the server's throughput under
   concurrent workers is bounded by allocation (minor-GC barriers are
   global), so tuples go straight into one buffer *)
let add_const buf = function
  | Term.Named s -> Buffer.add_string buf s
  | Term.Null i ->
      Buffer.add_string buf "_:n";
      Buffer.add_string buf (string_of_int i)

let render_ok r ~saturated (res : Engine.Enumerate.interned) =
  let status =
    match Engine.Enumerate.ioutcome res with
    | Obs.Budget.Complete when saturated -> "ok"
    | _ -> "partial"
  in
  let n = Engine.Enumerate.icount res in
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int r.id);
  Buffer.add_char buf ' ';
  Buffer.add_string buf status;
  (match r.verb with
  | Count ->
      (* count never touches the rows: no sort, no extern *)
      Buffer.add_string buf " count=";
      Buffer.add_string buf (string_of_int n)
  | Answers ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int n);
      let rows = Engine.Enumerate.sorted_rows res in
      for i = 0 to Array.length rows - 1 do
        let row = rows.(i) in
        Buffer.add_string buf " (";
        for j = 0 to Array.length row - 1 do
          if j > 0 then Buffer.add_char buf ',';
          add_const buf (Engine.Enumerate.iconst res row.(j))
        done;
        Buffer.add_char buf ')'
      done);
  Buffer.contents buf

let render_error ~id msg = Fmt.str "%d error %s" id (oneline msg)
let render_quarantined ~id = Fmt.str "%d quarantined" id
