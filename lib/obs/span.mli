(** Hierarchical timed spans.

    A span is a named interval with JSON attributes and ordered child
    spans — the run report's skeleton. Spans are cheap (two clock reads)
    and never raise; an unclosed span reports the time elapsed so far.

    The clock is injectable at the root (wall-clock seconds; defaults to
    [Unix.gettimeofday]) and inherited by children, so tests can drive
    spans deterministically. *)

type t

(** [root ?clock name] — a started root span. *)
val root : ?clock:(unit -> float) -> string -> t

(** [enter parent name] — start a child span (appended in order). *)
val enter : t -> string -> t

(** Stop the span (idempotent; children left open stay open). *)
val exit : t -> unit

(** [with_span parent name f] — run [f] inside a fresh child span, closing
    it on return or exception. *)
val with_span : t -> string -> (unit -> 'a) -> 'a

(** [timed parent name f] — {!with_span} when a parent is given, bare [f]
    otherwise (the common optional-instrumentation idiom). *)
val timed : t option -> string -> (unit -> 'a) -> 'a

(** [nest parent name f] — {!timed}, handing [f] the child span ([None]
    without a parent) so the spans [f] opens nest under it. *)
val nest : t option -> string -> (t option -> 'a) -> 'a

(** [set span key v] — attach (or overwrite) an attribute. *)
val set : t -> string -> Json.t -> unit

val name : t -> string

(** Seconds from start to {!exit}, or to now when still open. *)
val elapsed : t -> float

(** Child spans, in creation order. *)
val children : t -> t list

(** Attribute lookup. *)
val attr : t -> string -> Json.t option

(** [{"name"; "s"; <attrs...>; "children"?}] — children omitted when
    empty; attributes keep insertion order. *)
val to_json : t -> Json.t
