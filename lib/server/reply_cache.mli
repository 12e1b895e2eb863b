(** A fixed-size cache of reply bodies, keyed by request line bytes.

    The server answers over a frozen store, so the reply to a request
    line is a fixed function of its bytes, up to the leading request id.
    One cache per worker keeps the reply bodies of recently evaluated
    lines in a byte ring, so a repeated line skips parsing, evaluation
    and rendering.

    - {e Store.} A 512 KiB byte ring holds entries [line, class, body],
      where the body is the reply after its ["<id> "] prefix. An
      8,192-slot int index, chosen by [Hashtbl.hash line], points at an
      entry's position in the ring.
    - {e Lookup.} A lookup compares the stored line byte for byte, so a
      slot collision is a miss, never a wrong reply.
    - {e Eviction.} New entries overwrite the oldest (FIFO). An entry
      also drops out when a later line takes its index slot.
    - {e Bound.} An entry larger than ring/64 is not stored. The ring
      and the index are allocated once, by {!create}; {!add} and
      {!find} allocate nothing, so the cache's memory never depends on
      the input.

    The daemon decides what may be stored and when a lookup may be
    served (DESIGN.md §2.15). A cache is not thread-safe: each worker
    owns one. *)

type t

val create : unit -> t
(** An empty cache: the ring and the index, allocated once. *)

val ring_bytes : int
(** The ring's size: 512 KiB. *)

val max_entry : int
(** The largest entry stored, in bytes: ring/64 (8 KiB), including a
    5-byte header, the line and the body. *)

val slot : string -> int
(** [slot line] — the index slot [line] is filed under:
    [Hashtbl.hash line] modulo the 8,192 slots. *)

val find : t -> string -> int
(** [find c line] — the position of [line]'s entry, or [-1] on a miss.
    The position is valid until the next {!add}. *)

val partial : t -> int -> bool
(** [partial c e] — whether entry [e]'s reply is a [partial] one. *)

val reply : t -> int -> id:int -> string
(** [reply c e ~id] — ["<id> "] followed by entry [e]'s body: the bytes
    the evaluation that stored it would render under [id]. *)

val add : t -> string -> partial:bool -> string -> unit
(** [add c line ~partial reply] — store [reply], a rendered reply line
    ["<id> <body>"], under [line], overwriting the oldest entries it
    needs room for. An entry over {!max_entry} is not stored. *)
