(** Ground facts: atoms over constants only. *)

type t

val make : string -> Term.const list -> t
val pred : t -> string
val args : t -> Term.const list
val arity : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool
val consts : t -> Term.ConstSet.t

(** [of_atom a] — converts a ground atom; raises [Invalid_argument] on
    variables. *)
val of_atom : Atom.t -> t

val to_atom : t -> Atom.t

(** [rename f fact] maps every constant through [f] (identity on
    [None]). *)
val rename : (Term.const -> Term.const option) -> t -> t

(** Do all constants of the fact belong to [set]? *)
val within : Term.ConstSet.t -> t -> bool

(** Does the fact mention a labelled null? *)
val is_ground_of_nulls : t -> bool

val pp : Format.formatter -> t -> unit

(** [to_buffer b f] — append the bytes {!pp} prints for [f] to [b],
    without a formatter. *)
val to_buffer : Buffer.t -> t -> unit
