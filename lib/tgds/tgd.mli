(** Tuple-generating dependencies (§2) and the syntactic classes
    [L ⊆ G ⊆ FG ⊆ TGD], [FULL] and [FG_m]. *)

open Relational

(** A TGD is the saturation engine's rule: [(sigma : Tgd.t list :>
    Engine.Saturate.rule list)] hands a rule set to the engine without a
    copy. The type is private so {!make} still guards the head. *)
type t = private Engine.Saturate.rule

(** [make ~body ~head] — raises [Invalid_argument] on an empty head. *)
val make : body:Atom.t list -> head:Atom.t list -> t

val body : t -> Atom.t list
val head : t -> Atom.t list
val compare : t -> t -> int
val equal : t -> t -> bool
val body_vars : t -> Term.VarSet.t
val head_vars : t -> Term.VarSet.t

(** The frontier [fr(σ)]: variables shared between body and head. *)
val frontier : t -> Term.VarSet.t

(** Head variables not in the body. *)
val existential_vars : t -> Term.VarSet.t

(** Number of head atoms (the [m] of [FG_m]). *)
val head_size : t -> int

(** Schema of all predicates occurring in the TGD. *)
val schema : t -> Schema.t

val schema_of_set : t list -> Schema.t

(** A body atom containing all body variables, if any (§2). *)
val guard : t -> Atom.t option

val is_guarded : t -> bool

(** A body atom containing all frontier variables, if any. *)
val frontier_guard : t -> Atom.t option

val is_frontier_guarded : t -> bool

(** Exactly one body atom (class [L]). *)
val is_linear : t -> bool

(** No existential variables (class [FULL]). *)
val is_full : t -> bool

(** Frontier-guarded with at most [m] head atoms. *)
val is_fg : int -> t -> bool

val all_guarded : t list -> bool
val all_frontier_guarded : t list -> bool
val all_linear : t list -> bool
val all_full : t list -> bool
val max_head_size : t list -> int

(** [satisfies inst t] — [inst ⊨ σ]. *)
val satisfies : Instance.t -> t -> bool

(** [satisfies_all inst sigma] — [inst ⊨ Σ]. *)
val satisfies_all : Instance.t -> t list -> bool

(** Split a full TGD into single-head full TGDs (raises
    [Invalid_argument] on existential TGDs). *)
val split_full : t -> t list

(** Rename all variables with a suffix. *)
val rename_apart : suffix:string -> t -> t

(** The body as a CQ [q_φ] with the frontier as answers. *)
val body_cq : t -> Cq.t

val pp : Format.formatter -> t -> unit
