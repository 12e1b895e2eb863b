(** Lexer for the Datalog±-style surface language. *)

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

val pp_token : Format.formatter -> token -> unit

(** [stream src] — a pull lexer over [src]: each call returns the next
    lexeme, then [Eof] on every call once the input is exhausted; [%]
    starts a line comment. A bad character raises {!Error} with its
    position from the call that reaches it, so errors surface in source
    order. *)
val stream : string -> unit -> lexeme
