(** The naive re-enumerating chase: the reference that the indexed
    engine ({!Tgds.Chase}) is checked and timed against.

    Every pass re-enumerates all body homomorphisms of every TGD over the
    whole instance and fires the triggers not fired before, so pass [ℓ]
    derives exactly the facts of s-level [ℓ] (Lemma A.1). Budget checks
    sit at the engine's cut points — before each pass with the level
    about to run, then after each fired trigger's whole head — so
    budgeted runs agree with {!Tgds.Chase.run} level by level. *)

open Relational

type result = {
  instance : Instance.t;
  level_of : (Fact.t, int) Hashtbl.t;  (** s-level of every fact *)
  saturated : bool;  (** no unfired trigger remained *)
  max_level : int;  (** last pass that fired *)
  outcome : Obs.Budget.outcome;
}

(** [run ?policy ?max_level ?max_facts ?budget sigma db] — chase until
    saturation or the strictest of [{max_level, max_facts}] and [budget],
    exactly as {!Tgds.Chase.run} bounds a run. *)
val run :
  ?policy:Tgds.Chase.policy ->
  ?max_level:int ->
  ?max_facts:int ->
  ?budget:Obs.Budget.t ->
  Tgds.Tgd.t list ->
  Instance.t ->
  result

(** [up_to_level r l] — the facts of s-level ≤ [l]. *)
val up_to_level : result -> int -> Instance.t

(** [facts_levels r] — every fact with its s-level. *)
val facts_levels : result -> (Fact.t * int) list

(** [certain ?max_level sigma db q c̄] — {!Tgds.Chase.certain} over the
    naive chase: the verdict and whether the run saturated. *)
val certain :
  ?max_level:int -> Tgds.Tgd.t list -> Instance.t -> Ucq.t -> Term.const list -> bool * bool
