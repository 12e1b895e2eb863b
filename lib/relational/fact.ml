(** Ground facts: atoms over constants only. *)

open Term

type t = { pred : string; args : const list }

let make pred args = { pred; args }
let pred f = f.pred
let args f = f.args
let arity f = List.length f.args
let compare (a : t) (b : t) = Stdlib.compare a b
let equal a b = compare a b = 0

let consts f = List.fold_left (fun acc c -> ConstSet.add c acc) ConstSet.empty f.args

(** [of_atom a] converts a ground atom; raises [Invalid_argument] when the
    atom contains a variable. *)
let of_atom (a : Atom.t) =
  let args =
    List.map
      (function
        | Const c -> c
        | Var x -> invalid_arg ("Fact.of_atom: variable " ^ x))
      (Atom.args a)
  in
  { pred = Atom.pred a; args }

let to_atom f = Atom.make f.pred (List.map (fun c -> Const c) f.args)

(** [rename f fact] maps every constant through [f] (identity on [None]). *)
let rename f fact =
  { fact with args = List.map (fun c -> match f c with Some c' -> c' | None -> c) fact.args }

(** Whether every constant of the fact belongs to [set]. *)
let within set fact = List.for_all (fun c -> ConstSet.mem c set) fact.args

let is_ground_of_nulls f = List.exists is_null f.args

let pp ppf f =
  if f.args = [] then Fmt.string ppf f.pred
  else Fmt.pf ppf "%s(%a)" f.pred Fmt.(list ~sep:(any ",") Term.pp_const) f.args

let rec add_args b = function
  | [] -> ()
  | c :: rest ->
      (match c with
      | Named s -> Buffer.add_string b s
      | Null n ->
          Buffer.add_string b "_:n";
          Buffer.add_string b (string_of_int n));
      if rest <> [] then Buffer.add_char b ',';
      add_args b rest

let to_buffer b f =
  Buffer.add_string b f.pred;
  if f.args <> [] then begin
    Buffer.add_char b '(';
    add_args b f.args;
    Buffer.add_char b ')'
  end
