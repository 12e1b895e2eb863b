(** Linearization of guarded TGD sets (Lemma A.3, Appendix A.1): from a
    guarded Σ and a database D, a typed database [D*] and a *linear*
    [Σ* = Σ*_tg ∪ Σ*_ex] with [Q(D) = q(chase(D_star, Σ_star))]. Types and rules
    are materialized on demand (the reachable fragment of the paper's Σ*;
    see DESIGN.md). *)

open Relational

type ty = {
  guard : Fact.t;  (** guard atom over canonical constants *)
  side : Fact.t list;  (** side atoms over the guard's constants, sorted *)
}

(** [atoms(τ)] as an instance. *)
val atoms_of : ty -> Instance.t

(** Encoded predicate name of [⟨τ⟩]. *)
val pred_name : ty -> string

(** [d_star gc db] — the typed database [D*] and the seed types; each
    fact's type is read from the closure of [db] by {!Ground_closure.over}. *)
val d_star : Ground_closure.t -> Instance.t -> Instance.t * ty list

(** Expander rule [⟨τ⟩(x̄) → R(x̄)]. *)
val expander_rule : ty -> Tgd.t

type t = {
  db_star : Instance.t;  (** the typed database [D*] *)
  sigma_star : Tgd.t list;  (** the linear set [Σ*] (generator + expander) *)
  types : ty list;  (** all reachable types *)
  complete : bool;  (** false iff the type budget was exhausted *)
}

(** [make sigma db] — run the construction. Requires Σ guarded;
    [complete = false] signals the type budget (4000 reachable types) was
    hit (results then sound but possibly missing answers). *)
val make : Tgd.t list -> Instance.t -> t

(** [certain ?max_level lin q c̄] — evaluate a UCQ over
    [chase(D_star, Σ_star)], level-bounded per Lemma A.1; the boolean
    reports exactness. *)
val certain :
  ?max_level:int -> ?max_facts:int -> t -> Ucq.t -> Term.const list -> bool * bool
