(** Growable vector of native ints over a flat [Bigarray] backing.

    The store's workhorse container: columns, posting lists and
    free-lists are all [Vec.t]s. The backing array lives outside the
    OCaml heap, so a store of [n] facts costs O(n) {e words} of major
    heap for the vector records only — the data plane never contributes
    to GC marking. Growth is by doubling ({!push} is amortised O(1)).
    Order-preserving deletion, which posting lists need, is by
    tombstone: {!kill} overwrites a slot in O(1) and the dead slots are
    squeezed out in order once they are more than half of the vector,
    so a deletion costs amortised O(1) and no scan.

    Not thread-safe for writers; concurrent readers are fine, which is
    exactly the query server's frozen-snapshot discipline. *)

type t

(** [create ?capacity ()] — an empty vector. *)
val create : ?capacity:int -> unit -> t

(** Number of slots, tombstones included. *)
val length : t -> int

(** Number of slots that are not tombstones. *)
val live : t -> int

(** Allocated slots (≥ {!length}); exposed so capacity-leak regressions
    are testable. *)
val capacity : t -> int

(** [get v i] / [set v i x] — bounds-checked element access. *)
val get : t -> int -> int

val set : t -> int -> int -> unit

(** Append, doubling the backing array when full. *)
val push : t -> int -> unit

(** [clear v] — drop every slot, keeping the capacity. *)
val clear : t -> unit

(** Remove and return the last element. Raises [Invalid_argument] when
    empty. *)
val pop : t -> int

(** [kill v i tomb] — overwrite the live slot [i] with the tombstone
    [tomb], which must be negative: a vector that uses tombstones keeps
    its live values non-negative, so a reader tells the two apart by
    sign. Once more than half of the slots are dead, they are all
    dropped and the live slots close up in order; the capacity is kept.
    Raises [Invalid_argument] on an out-of-range or already dead slot,
    or a non-negative [tomb]. Use only with {!push}: {!set} and {!pop}
    do not keep the dead count. *)
val kill : t -> int -> int -> unit

(** [iter f v] — every slot in append order, tombstones included. *)
val iter : (int -> unit) -> t -> unit

(** [to_list v] — every slot in append order, tombstones included. *)
val to_list : t -> int list
