(** UCQ rewriting for linear TGDs (Proposition D.2): piece-based backward
    chaining producing [q'] with [q(chase(D,Σ)) = q'(D)] for every
    database [D]. *)

open Relational

(** [rewrite sigma q] — the perfect rewriting; the boolean is false when
    the query budget (512 disjuncts) was exhausted (result then sound but
    possibly incomplete). Raises [Invalid_argument] on non-linear TGDs. *)
val rewrite : Tgd.t list -> Ucq.t -> Ucq.t * bool

(** Rewriting-based certain membership. *)
val entails : Tgd.t list -> Instance.t -> Ucq.t -> Term.const list -> bool * bool
