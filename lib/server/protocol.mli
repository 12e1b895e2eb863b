(** The query server's line-oriented wire protocol.

    One request per input line:
    {v
    answers q(X) :- teaches(X,C).
    count q(X) :- prof(X). q(X) :- student(X).
    v}
    The text after the verb is parsed with the surface-language parser;
    clauses sharing a head name form a UCQ, so a union fits on one line.
    Blank lines and [%] comments are skipped without a reply. A request
    may contain {e only} query clauses (no TGDs, no facts) and exactly
    one query name.

    Every reply is a single line starting with the request id (the
    1-based input line number), so replies are self-describing under any
    completion order:
    {v
    <id> ok <n> (t1) (t2) ...        answers, complete
    <id> ok count=<n>                count, complete
    <id> partial <n> (t1) ...        budget cut the enumeration, or the
                                     store was frozen unsaturated — the
                                     tuples are a sound subset
    <id> error <message>             parse failure or evaluation fault
    <id> quarantined                 query previously faulted; not run
    v}
    Reply bytes are {e canonical}: the answer tuples come from the
    enumerator's sorted duplicate-free answer set, so a request's reply
    line is identical under any worker count and any scheduling — only
    the interleaving of reply lines varies, and sorting a transcript by
    leading id restores a deterministic document. *)

open Relational

type verb = Answers | Count

type request = {
  id : int;  (** 1-based input line number *)
  verb : verb;
  key : string Lazy.t;  (** rendered on demand; read it through {!key} *)
  query : Ucq.t;
}

type line =
  | Request of request
  | Empty  (** blank or comment: no reply *)
  | Malformed of string  (** parse error, to be wrapped in an error reply *)

val parse_line : id:int -> string -> line

(** [key r] — the canonical quarantine key: the verb plus the parsed
    query rendered back, so textual variants of a query share a key.
    Rendered on the first call only; call it on the parsing domain. *)
val key : request -> string

(** [render_ok r ~saturated res] — the reply line for a successful
    evaluation, straight from the interned answer set: tuples extern one
    constant at a time into the buffer (no materialized [const list
    list]), and a [count] reply never touches the rows at all. Status is
    [ok] only when the store was saturated {e and} the enumeration
    completed; otherwise [partial]. *)
val render_ok :
  request -> saturated:bool -> Engine.Enumerate.interned -> string

val render_error : id:int -> string -> string
val render_quarantined : id:int -> string
