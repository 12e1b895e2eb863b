(** Recursive-descent parser for the surface language.

    Statements (period-terminated): schema declarations [p/2.], TGDs
    [body -> head.] (implicit existentials; empty body as [true -> …]),
    ground facts, and query clauses [q(X) :- body.] (same-name clauses
    form a UCQ). Uppercase-initial identifiers are variables. *)

open Relational

type program = {
  schema : Schema.t;  (** declared plus inferred predicates *)
  tgds : Tgds.Tgd.t list;
  facts : Fact.t list;
  queries : (string * Ucq.t) list;  (** named UCQs, in declaration order *)
}

exception Error of string * int * int

(** Raises {!Error} / {!Lexer.Error} with positions on malformed input:
    the lexer is pulled as the parser goes, so the first error in source
    order is the one reported. *)
val parse : string -> program

val parse_file : string -> program

(** A base-fact mutation of a log file: [+fact.] adds, [-fact.]
    removes. *)
type mutation = Add of Fact.t | Del of Fact.t

(** [parse_mutations src] — a mutation log: a sequence of ground
    [+fact(...).] / [-fact(...).] statements in order ([%] comments as
    usual). Raises {!Error} / {!Lexer.Error} on malformed input. *)
val parse_mutations : string -> mutation list

val parse_mutations_file : string -> mutation list

(** Database of the program's facts. *)
val database : program -> Instance.t

(** Look up a named query. *)
val query : program -> string -> Ucq.t option
