(** Timed span trees; see the interface. *)

type t = {
  name : string;
  clock : unit -> float;
  start : float;
  mutable stop : float option;
  mutable attrs : (string * Json.t) list;  (* insertion order *)
  mutable kids : t list;  (* reverse creation order *)
}

let root ?(clock = Unix.gettimeofday) name =
  { name; clock; start = clock (); stop = None; attrs = []; kids = [] }

let enter parent name =
  let child =
    {
      name;
      clock = parent.clock;
      start = parent.clock ();
      stop = None;
      attrs = [];
      kids = [];
    }
  in
  parent.kids <- child :: parent.kids;
  child

let exit span =
  match span.stop with None -> span.stop <- Some (span.clock ()) | Some _ -> ()

let with_span parent name f =
  let span = enter parent name in
  Fun.protect ~finally:(fun () -> exit span) f

let timed parent name f =
  match parent with None -> f () | Some p -> with_span p name f

let nest parent name f =
  match parent with
  | None -> f None
  | Some p ->
      let span = enter p name in
      Fun.protect ~finally:(fun () -> exit span) (fun () -> f (Some span))

let set span key v =
  if List.mem_assoc key span.attrs then
    span.attrs <- List.map (fun (k, v') -> if k = key then (k, v) else (k, v')) span.attrs
  else span.attrs <- span.attrs @ [ (key, v) ]

let name span = span.name

let elapsed span =
  (match span.stop with Some t -> t | None -> span.clock ()) -. span.start

let children span = List.rev span.kids
let attr span key = List.assoc_opt key span.attrs

let rec to_json span =
  let base =
    [ ("name", Json.String span.name); ("s", Json.Float (elapsed span)) ]
    @ span.attrs
  in
  match children span with
  | [] -> Json.Obj base
  | kids -> Json.Obj (base @ [ ("children", Json.List (List.map to_json kids)) ])
