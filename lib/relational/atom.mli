(** Relational atoms [R(t1,…,tn)] over terms. *)

type t

val make : string -> Term.t list -> t
val pred : t -> string
val args : t -> Term.t list
val arity : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool

(** Variables of the atom (deduplicated). *)
val vars : t -> Term.VarSet.t

val consts : t -> Term.ConstSet.t
val is_ground : t -> bool

(** [apply subst a] substitutes variables by terms; unmapped variables are
    left in place. *)
val apply : Term.t Term.VarMap.t -> t -> t

(** [rename_consts f a] maps every constant through [f] (identity when
    [f] returns [None]). *)
val rename_consts : (Term.const -> Term.const option) -> t -> t

val pp : Format.formatter -> t -> unit
