(** Homomorphism search: backtracking assignment of the variables of an
    atom list into the constants of an instance, the workhorse of the
    whole library. *)

type binding = Term.const Term.VarMap.t

(** Apply a binding to an atom (unbound variables stay). *)
val apply_binding : binding -> Atom.t -> Atom.t

(** [match_atom ~injective b a tuple] — extend [b] so that [a] becomes
    the fact with arguments [tuple], checking repeated variables and
    constants positionally; [None] when the atom does not match. Exposed
    for index-aware matchers (lib/engine). *)
val match_atom :
  injective:bool -> binding -> Atom.t -> Term.const list -> binding option

(** [fold_homs ?injective ?init ?ordering atoms inst f acc] — fold [f]
    over every homomorphism from [atoms] to [inst] extending [init].
    [injective] constrains the whole variable-to-constant map. [ordering]
    picks the atom-selection strategy: [`Dynamic] (default) most
    constrained first; [`Static] in the given order (ablations). *)
val fold_homs :
  ?injective:bool ->
  ?init:binding ->
  ?ordering:[ `Dynamic | `Static ] ->
  Atom.t list ->
  Instance.t ->
  (binding -> 'a -> 'a) ->
  'a ->
  'a

(** First homomorphism, if any. *)
val find : ?injective:bool -> ?init:binding -> Atom.t list -> Instance.t -> binding option

val exists : ?injective:bool -> ?init:binding -> Atom.t list -> Instance.t -> bool

(** All homomorphisms (exponentially many in general — small inputs
    only). *)
val all : ?injective:bool -> ?init:binding -> Atom.t list -> Instance.t -> binding list

(** [find_between ?injective ?fixed src dst] — a homomorphism
    [h : dom(src) → dom(dst)] with [R(h(t̄)) ∈ dst] for every
    [R(t̄) ∈ src]; [fixed] pre-assigns constants. *)
val find_between :
  ?injective:bool ->
  ?fixed:Term.const Term.ConstMap.t ->
  Instance.t ->
  Instance.t ->
  Term.const Term.ConstMap.t option

(** [maps_to src dst] — [src → dst] in the paper's notation. *)
val maps_to :
  ?injective:bool ->
  ?fixed:Term.const Term.ConstMap.t ->
  Instance.t ->
  Instance.t ->
  bool

(** [verify_between src dst h] — is [h] a (total) homomorphism from [src]
    to [dst]? *)
val verify_between : Instance.t -> Instance.t -> Term.const Term.ConstMap.t -> bool
