(** Hash table from non-negative ints to ints, flat and off-heap.

    The store's posting tables ({!Index}: one per predicate and argument
    position, keyed by cell id) are these. Open addressing with linear
    probing over one [Bigarray] of interleaved key/value slots, so an
    entry costs two words of off-heap data at a load factor between 3/8
    and 3/4, no per-entry block and nothing for the GC to mark; a probe
    is integer arithmetic with no C call. {!remove} shifts the probe run
    back instead of leaving a tombstone, so insert/delete churn over the
    same keys never grows the table.

    Not thread-safe for writers; concurrent readers are fine, which is
    the query server's frozen-snapshot discipline. *)

type t

(** An empty table. *)
val create : unit -> t

(** Number of bound keys. *)
val length : t -> int

(** [find t k] — the value bound to [k], or [-1] when [k] is unbound
    (so a caller that probes this way binds no key to [-1]). Allocation
    free. *)
val find : t -> int -> int

(** [replace t k v] — bind [k] to [v], replacing any previous binding;
    doubles the table once it would be more than 3/4 full. Raises
    [Invalid_argument] when [k] is negative. *)
val replace : t -> int -> int -> unit

(** [remove t k] — unbind [k]; a no-op when it is unbound. *)
val remove : t -> int -> unit
