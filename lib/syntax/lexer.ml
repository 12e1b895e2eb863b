(** Hand-written lexer for the Datalog±-style surface language.

    Tokens: identifiers (lowercase-initial = constants/predicates,
    uppercase-initial = variables), integers, punctuation
    [( ) , . / :- ->], and end of input. [%] starts a line comment. *)

type token =
  | Ident of string  (** lowercase-initial identifier *)
  | Upper of string  (** uppercase-initial identifier (a variable) *)
  | Int of int
  | Lparen
  | Rparen
  | Comma
  | Period
  | Slash
  | Plus  (** "+" (mutation logs) *)
  | Minus  (** "-" not followed by ">" (mutation logs) *)
  | Arrow  (** "->" *)
  | Turnstile  (** ":-" *)
  | Eof

type lexeme = { token : token; line : int; col : int }

exception Error of string * int * int

let pp_token ppf = function
  | Ident s -> Fmt.pf ppf "identifier %S" s
  | Upper s -> Fmt.pf ppf "variable %S" s
  | Int n -> Fmt.pf ppf "integer %d" n
  | Lparen -> Fmt.string ppf "'('"
  | Rparen -> Fmt.string ppf "')'"
  | Comma -> Fmt.string ppf "','"
  | Period -> Fmt.string ppf "'.'"
  | Slash -> Fmt.string ppf "'/'"
  | Plus -> Fmt.string ppf "'+'"
  | Minus -> Fmt.string ppf "'-'"
  | Arrow -> Fmt.string ppf "'->'"
  | Turnstile -> Fmt.string ppf "':-'"
  | Eof -> Fmt.string ppf "end of input"

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(** [stream src] — a pull lexer over [src]: each call returns the next
    lexeme, and [Eof] once the input is exhausted (on every later call
    too). A bad character raises {!Error} when the call that reaches it
    is made, so a caller meets the errors of [src] in source order. *)
let stream src =
  let n = String.length src in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let advance () =
    if !i < n && src.[!i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col;
    incr i
  in
  (* the token of the [len] characters at the current position *)
  let take len token =
    let l = { token; line = !line; col = !col } in
    for _ = 1 to len do
      advance ()
    done;
    l
  in
  let rec next () =
    if !i >= n then { token = Eof; line = !line; col = !col }
    else
      let c = src.[!i] in
      if c = ' ' || c = '\t' || c = '\r' || c = '\n' then begin
        advance ();
        next ()
      end
      else if c = '%' then begin
        while !i < n && src.[!i] <> '\n' do
          advance ()
        done;
        next ()
      end
      else if c = '(' then take 1 Lparen
      else if c = ')' then take 1 Rparen
      else if c = ',' then take 1 Comma
      else if c = '.' then take 1 Period
      else if c = '/' then take 1 Slash
      else if c = '-' && !i + 1 < n && src.[!i + 1] = '>' then take 2 Arrow
      else if c = '+' then take 1 Plus
      else if c = '-' then take 1 Minus
      else if c = ':' && !i + 1 < n && src.[!i + 1] = '-' then take 2 Turnstile
      else if c >= '0' && c <= '9' then begin
        let start = !i in
        let scol = !col in
        while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do
          advance ()
        done;
        { token = Int (int_of_string (String.sub src start (!i - start)));
          line = !line; col = scol }
      end
      else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
        let start = !i in
        let scol = !col in
        while !i < n && is_ident_char src.[!i] do
          advance ()
        done;
        let s = String.sub src start (!i - start) in
        let token =
          if (c >= 'A' && c <= 'Z') || c = '_' then Upper s else Ident s
        in
        { token; line = !line; col = scol }
      end
      else raise (Error (Printf.sprintf "unexpected character %C" c, !line, !col))
  in
  next
