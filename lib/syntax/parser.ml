(** Recursive-descent parser for the surface language.

    Statements (each ending with a period):
    - schema declaration: [pred/2.]
    - TGD: [body -> head.] — head variables absent from the body are
      implicitly existentially quantified, as in the paper's notation;
      an empty body is written [true -> head.]
    - fact: a ground atom [knows(alice,bob).]
    - query: [q(X) :- knows(X,Y).] — several clauses with the same head
      name and arity form a UCQ.

    Identifiers starting with an uppercase letter or [_] are variables;
    others are constants / predicate names. *)

open Relational

type program = {
  schema : Schema.t;  (** declared plus inferred predicates *)
  tgds : Tgds.Tgd.t list;
  facts : Fact.t list;
  queries : (string * Ucq.t) list;  (** named UCQs, in declaration order *)
}

exception Error of string * int * int

(* The lexer is pulled one lexeme at a time; [ahead] holds the lexeme
   peeked but not yet taken, when [full]. *)
type state = {
  pull : unit -> Lexer.lexeme;
  mutable ahead : Lexer.lexeme;
  mutable full : bool;
}

let state src =
  { pull = Lexer.stream src; ahead = { Lexer.token = Lexer.Eof; line = 0; col = 0 };
    full = false }

let peek st =
  if not st.full then begin
    st.ahead <- st.pull ();
    st.full <- true
  end;
  st.ahead

let next st =
  let l = peek st in
  st.full <- false;
  l

(* An error at the lexeme [l]: the one just taken, or the one peeked. *)
let fail_at (l : Lexer.lexeme) msg =
  raise (Error (Fmt.str "%s (found %a)" msg Lexer.pp_token l.token, l.line, l.col))

let fail st msg = fail_at (peek st) msg

let expect st token msg =
  let l = next st in
  if l.Lexer.token <> token then fail_at l msg

(* term := lowercase ident (constant) | Uppercase ident (variable) | int *)
let parse_term st =
  let l = next st in
  match l.Lexer.token with
  | Lexer.Ident s -> Term.const s
  | Lexer.Upper x -> Term.var x
  | Lexer.Int n -> Term.const (string_of_int n)
  | _ -> fail_at l "expected a term"

(* atom := ident [ '(' term, ..., term ')' ] *)
let parse_atom st =
  let first = next st in
  match first.Lexer.token with
  | Lexer.Ident p ->
      if (peek st).Lexer.token = Lexer.Lparen then begin
        ignore (next st);
        if (peek st).Lexer.token = Lexer.Rparen then begin
          ignore (next st);
          Atom.make p []
        end
        else
        let rec args acc =
          let t = parse_term st in
          let l = next st in
          match l.Lexer.token with
          | Lexer.Comma -> args (t :: acc)
          | Lexer.Rparen -> List.rev (t :: acc)
          | _ -> fail_at l "expected ',' or ')'"
        in
        Atom.make p (args [])
      end
      else Atom.make p []
  | _ -> fail_at first "expected a predicate name"

let parse_atom_list st =
  let rec go acc =
    let a = parse_atom st in
    if (peek st).Lexer.token = Lexer.Comma then begin
      ignore (next st);
      go (a :: acc)
    end
    else List.rev (a :: acc)
  in
  go []

(* one statement; returns its effect *)
type statement =
  | Decl of string * int
  | Tgd_stmt of Tgds.Tgd.t
  | Fact_stmt of Fact.t
  | Query_stmt of string * Cq.t

let parse_statement st =
  match (peek st).Lexer.token with
  | Lexer.Ident "true" -> (
      (* empty-body TGD: true -> head. *)
      ignore (next st);
      let l = next st in
      match l.Lexer.token with
      | Lexer.Arrow ->
          let head = parse_atom_list st in
          expect st Lexer.Period "expected '.' after TGD";
          Tgd_stmt (Tgds.Tgd.make ~body:[] ~head)
      | _ -> fail_at l "expected '->' after true")
  | _ -> (
      let first = parse_atom st in
      let l = next st in
      match l.Lexer.token with
      | Lexer.Slash -> (
          (* schema declaration p/2 — [first] must be a 0-ary atom *)
          match ((peek st).Lexer.token, Atom.args first) with
          | Lexer.Int n, [] ->
              ignore (next st);
              expect st Lexer.Period "expected '.' after declaration";
              Decl (Atom.pred first, n)
          | _ -> fail st "expected an arity after '/'")
      | Lexer.Period ->
          if Atom.is_ground first then Fact_stmt (Fact.of_atom first)
          else fail_at l "a fact must be ground"
      | (Lexer.Comma | Lexer.Arrow) as tok ->
          (* TGD: body -> head *)
          let body =
            if tok = Lexer.Comma then first :: parse_atom_list st else [ first ]
          in
          if tok = Lexer.Comma then expect st Lexer.Arrow "expected '->'";
          let head = parse_atom_list st in
          expect st Lexer.Period "expected '.' after TGD";
          Tgd_stmt (Tgds.Tgd.make ~body ~head)
      | Lexer.Turnstile ->
          (* query: head(args) :- body. *)
          let answer =
            List.map
              (function
                | Term.Var x -> x
                | Term.Const _ -> fail_at l "query answers must be variables")
              (Atom.args first)
          in
          let body = parse_atom_list st in
          expect st Lexer.Period "expected '.' after query";
          Query_stmt (Atom.pred first, Cq.make ~answer body)
      | _ -> fail_at l "expected '.', '/', '->' or ':-'")

(** [parse src] — the whole program. Raises {!Error} (or {!Lexer.Error})
    with a position on malformed input. *)
let parse src =
  let st = state src in
  let decls = ref [] and tgds = ref [] and facts = ref [] in
  let queries : (string * Cq.t list) list ref = ref [] in
  while (peek st).Lexer.token <> Lexer.Eof do
    match parse_statement st with
    | Decl (p, n) -> decls := (p, n) :: !decls
    | Tgd_stmt t -> tgds := t :: !tgds
    | Fact_stmt f -> facts := f :: !facts
    | Query_stmt (name, cq) ->
        queries :=
          (match List.assoc_opt name !queries with
          | Some cqs -> (name, cq :: cqs) :: List.remove_assoc name !queries
          | None -> (name, [ cq ]) :: !queries)
  done;
  let tgds = List.rev !tgds and facts = List.rev !facts in
  let inferred =
    let from_atoms atoms s =
      List.fold_left (fun s a -> Schema.add (Atom.pred a) (Atom.arity a) s) s atoms
    in
    List.fold_left
      (fun s t -> from_atoms (Tgds.Tgd.body t) (from_atoms (Tgds.Tgd.head t) s))
      (List.fold_left
         (fun s f -> Schema.add (Fact.pred f) (Fact.arity f) s)
         (Schema.of_list (List.rev !decls))
         facts)
      tgds
  in
  {
    schema = inferred;
    tgds;
    facts;
    queries =
      List.rev_map (fun (name, cqs) -> (name, Ucq.make (List.rev cqs))) !queries;
  }

(* A base-fact mutation of a log file: [+fact.] adds, [-fact.] removes. *)
type mutation = Add of Fact.t | Del of Fact.t

(** [parse_mutations src] — a mutation log: a sequence of
    [+fact(...).] / [-fact(...).] statements ([%] comments as usual),
    in order. Facts must be ground. *)
let parse_mutations src =
  let st = state src in
  let muts = ref [] in
  while (peek st).Lexer.token <> Lexer.Eof do
    let l = next st in
    let sign =
      match l.Lexer.token with
      | Lexer.Plus -> true
      | Lexer.Minus -> false
      | _ -> fail_at l "expected '+' or '-' starting a mutation"
    in
    let a = parse_atom st in
    let dot = next st in
    if dot.Lexer.token <> Lexer.Period then fail_at dot "expected '.' after mutation";
    if not (Atom.is_ground a) then fail_at dot "a mutation must be ground";
    let f = Fact.of_atom a in
    muts := (if sign then Add f else Del f) :: !muts
  done;
  List.rev !muts

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  src

(** [parse_file path] — parse a program from a file. *)
let parse_file path = parse (read_file path)

(** [parse_mutations_file path] — parse a mutation log from a file. *)
let parse_mutations_file path = parse_mutations (read_file path)

(** Database of the program's facts. *)
let database p = Instance.of_facts p.facts

(** Look up a named query. *)
let query p name = List.assoc_opt name p.queries
