(** Symbol interning for the columnar fact store.

    Constants, labelled nulls and predicate names are mapped to dense
    non-negative ints so the store's columns, posting lists and
    membership keys are flat int data. Two id spaces: {e symbols}
    (constants and nulls) and {e predicates}.

    Id assignment is deterministic in the operation sequence: {!intern}
    assigns ids in first-seen order. Ids are internal — every observable
    surface (output, checkpoints, stats) goes through {!extern} — but
    determinism keeps replays structurally aligned. *)

open Relational.Term

type t

val create : unit -> t

(** Number of interned symbols (ids are [0 .. size - 1]). *)
val size : t -> int

(** [intern t c] — the id of [c], assigning the next dense id when new. *)
val intern : t -> const -> int

(** [intern_null t i] — [intern t (Null i)] for a payload [i >= 0],
    without boxing the null. *)
val intern_null : t -> int -> int

(** [find t c] — the id of [c] when already interned; never assigns. *)
val find : t -> const -> int option

(** Like {!find} but returns [-1] for unknown symbols — no option
    allocation on the matching hot path. *)
val find_int : t -> const -> int

(** [extern t id] — the symbol for a base id. Raises [Invalid_argument]
    on an id never assigned. *)
val extern : t -> int -> const

val intern_pred : t -> string -> int
val find_pred : t -> string -> int option

(** Like {!find_pred} but returns [-1] for unknown predicates. *)
val find_pred_int : t -> string -> int
val extern_pred : t -> int -> string
val pred_count : t -> int
