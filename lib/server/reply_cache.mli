(** A fixed-size cache of reply bodies, keyed by request line bytes.

    The server answers over a frozen store, so the reply to a request
    line is a fixed function of its bytes, up to the leading request id.
    One cache per worker keeps the reply bodies of recently evaluated
    lines in a byte ring, so a repeated line skips parsing, evaluation
    and rendering.

    - {e Store.} A 512 KiB byte ring holds entries [line, class, body],
      where the body is the reply after its ["<id> "] prefix. A
      16,384-slot int index points at an entry's position in the ring.
      Each line has two candidate slots, {!slot} and {!alt_slot}, and is
      filed under at most one of them.
    - {e Lookup.} A lookup compares the stored line with the requested
      one, 8 bytes at a time, so a slot collision is a miss, never a
      wrong reply.
    - {e Eviction.} New entries overwrite the oldest ring bytes. {!add}
      files a line under the slot that already holds it, else under a
      dead slot of its two, else under the one holding the older entry,
      which drops out. A hit on an entry in the ring's older half copies
      the entry to the ring's head (second chance), so a line that keeps
      being asked for outlives laps of the ring.
    - {e Bound.} An entry larger than ring/64 is not stored. The ring
      and the index are allocated once, by {!create}; {!add} and
      {!find} allocate nothing, so the cache's memory (640 KiB) never
      depends on the input.

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
(** [slot line] — [line]'s first candidate slot: [Hashtbl.hash line]
    modulo the 16,384 slots. *)

val alt_slot : string -> int
(** [alt_slot line] — [line]'s second candidate slot: a seeded
    [Hashtbl.seeded_hash] of [line] modulo the 16,384 slots. *)

val find : t -> string -> int
(** [find c line] — the position of [line]'s entry, or [-1] on a miss.
    A hit on an entry in the ring's older half first copies it to the
    ring's head and returns the copy's position. The position is valid
    until the next {!find} or {!add}. *)

val partial : t -> int -> bool
(** [partial c e] — whether entry [e]'s reply is a [partial] one. *)

val reply : t -> int -> id:int -> string
(** [reply c e ~id] — ["<id> "] followed by entry [e]'s body: the bytes
    the evaluation that stored it would render under [id]. *)

val add : t -> string -> partial:bool -> string -> unit
(** [add c line ~partial reply] — store [reply], a rendered reply line
    ["<id> <body>"], under [line], overwriting the oldest ring bytes it
    needs room for and taking one of [line]'s two slots (see
    {e Eviction}). An entry over {!max_entry} is not stored. *)
