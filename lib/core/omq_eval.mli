(** Open-world OMQ evaluation (§3.1): two routes — the baseline chase
    (Proposition 3.1) and, with [~fpt:true], the FPT pipeline of
    Proposition 3.3(3) — behind two entry points, and exact atomic
    answering via the ground closure.

    Both entry points share one chase step: it checks the preconditions,
    runs the route's chase and hands its indexed store to the query. The
    FPT route linearizes Σ (Lemma A.3), loads D* into the engine store and
    chases the linear Σ*; default levels are 8 for the baseline and 10
    for FPT.

    [?budget] bounds the underlying chase (graceful cutoff; the verdict is
    then inexact). [?obs] collects phase spans: [rewrite] (linearization),
    [chase] (with its per-level children), [match]. *)

open Relational

type verdict = {
  holds : bool;  (** the tuple is a certain answer (as far as the run saw) *)
  exact : bool;  (** the verdict is known exact (saturation reached) *)
}

(** Level-bounded chase of the selected route, then the engine's joiner on
    the chased store. [holds = true] is always sound; the verdict is
    definitive when [exact]. Raises [Invalid_argument] when [db] is not
    over the data schema, or when [fpt] is asked of an unguarded
    ontology. *)
val certain :
  ?fpt:bool ->
  ?max_level:int ->
  ?max_facts:int ->
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  Omq.t ->
  Instance.t ->
  Term.const list ->
  verdict

(** Exact atomic certain answering under a guarded ontology (always
    terminating). *)
val certain_atomic : Tgds.Tgd.t list -> Instance.t -> Fact.t -> bool

(** The result of an answer-enumeration run. *)
type answer_set = {
  tuples : Term.const list list;
      (** canonical answer set: sorted, duplicate-free, null-free *)
  exact : bool;
      (** chase saturated, rewrite complete, enumeration uncut — the set
          is {e the} certain-answer set, not just a sound subset *)
  outcome : Obs.Budget.outcome;
      (** [Partial v] when the budget cut the chase or the enumeration *)
}

(** [answer_set q db] — certain answers over active-domain tuples,
    enumerated output-sensitively via {!Engine.Enumerate} (cost scales
    with the answers found, not [|adom|^arity]). [fpt] selects the route
    and the preconditions are {!certain}'s. The budget's fact axis bounds
    chase facts and emitted answers; a cut run returns a sound prefix. *)
val answer_set :
  ?fpt:bool ->
  ?max_level:int ->
  ?max_facts:int ->
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  Omq.t ->
  Instance.t ->
  answer_set
