(** Growable vector of native ints over a flat [Bigarray] backing.

    The store's workhorse container: columns, posting lists and
    free-lists are all [Vec.t]s. The backing array lives outside the
    OCaml heap, so a store of [n] facts costs O(n) {e words} of major
    heap for the vector records only — the data plane never contributes
    to GC marking. Growth is by doubling ({!push} is amortised O(1));
    {!remove_value} is the one O(n) operation, mirroring the posting
    list semantics the chase needs (order-preserving deletion).

    Not thread-safe for writers; concurrent readers are fine, which is
    exactly the query server's frozen-snapshot discipline. *)

type t

(** [create ?capacity ()] — an empty vector. *)
val create : ?capacity:int -> unit -> t

(** Number of elements. *)
val length : t -> int

(** Allocated slots (≥ {!length}); exposed so capacity-leak regressions
    are testable. *)
val capacity : t -> int

(** [get v i] / [set v i x] — bounds-checked element access. *)
val get : t -> int -> int

val set : t -> int -> int -> unit

(** Append, doubling the backing array when full. *)
val push : t -> int -> unit

(** Remove and return the last element. Raises [Invalid_argument] when
    empty. *)
val pop : t -> int

(** [remove_value v x] — delete the first occurrence of [x], shifting
    the suffix left (order-preserving); [false] when absent. *)
val remove_value : t -> int -> bool

(** [iter f v] — in append order. *)
val iter : (int -> unit) -> t -> unit

(** [to_list v] — elements in append order. *)
val to_list : t -> int list
