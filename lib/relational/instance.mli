(** Finite instances and databases (§2): predicate-indexed fact stores with
    the operations the paper uses — restriction [I|T], union, renaming,
    Gaifman graphs, guarded sets and isolated constants. *)

type t

val empty : t
val add_fact : Fact.t -> t -> t
val of_facts : Fact.t list -> t

(** [of_atoms atoms] — raises [Invalid_argument] on non-ground atoms. *)
val of_atoms : Atom.t list -> t

val mem : Fact.t -> t -> bool
val facts : t -> Fact.t list
val fold : (Fact.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Fact.t -> unit) -> t -> unit
val for_all : (Fact.t -> bool) -> t -> bool
val exists : (Fact.t -> bool) -> t -> bool

(** Tuples of predicate [p]. *)
val tuples : string -> t -> Term.const list list

val predicates : t -> string list

(** Number of facts. *)
val size : t -> int

(** [‖I‖]: total symbol count (facts weighted by arity + 1). *)
val norm : t -> int

val is_empty : t -> bool

(** Active domain. *)
val dom : t -> Term.ConstSet.t

val union : t -> t -> t

(** [restrict i set] — [I|T]: the atoms mentioning only constants of
    [set]. *)
val restrict : t -> Term.ConstSet.t -> t

val filter : (Fact.t -> bool) -> t -> t

(** [diff a b] removes [b]'s facts from [a]. *)
val diff : t -> t -> t

val subset : t -> t -> bool
val equal : t -> t -> bool

(** [rename f i] maps all constants through [f] (identity on [None]). *)
val rename : (Term.const -> Term.const option) -> t -> t

(** [rename_map m i] — renaming via a constant map (identity off the
    map). *)
val rename_map : Term.const Term.ConstMap.t -> t -> t

(** Schema inferred from the facts present. *)
val schema : t -> Schema.t

(** [gaifman i] — the Gaifman graph of [i] (§2): vertices are indices into
    the returned constant array. *)
val gaifman : t -> Qgraph.Graph.t * Term.const array

(** Treewidth of the Gaifman graph. *)
val treewidth : t -> int

(** Whether the Gaifman graph is connected (§6). *)
val connected : t -> bool

(** [isolated i c] — [c] occurs in exactly one atom of [i] (§6). *)
val isolated : t -> Term.const -> bool

(** The constant sets of atoms of [i]. *)
val guarded_sets : t -> Term.ConstSet.t list

(** Guarded sets not strictly contained in another guarded set (the family
    [A] of §6.2). *)
val maximal_guarded_sets : t -> Term.ConstSet.t list

val pp : Format.formatter -> t -> unit
