(** Open-world OMQ evaluation (§3.1): the baseline chase engine
    (Proposition 3.1), the FPT pipeline of Proposition 3.3(3), and exact
    atomic answering via the ground closure.

    [?budget] bounds the underlying chase (graceful cutoff; the verdict is
    then inexact). [?obs] collects phase spans: [rewrite] (linearization),
    [chase] (with its per-level children), [match]. *)

open Relational

type verdict = {
  holds : bool;  (** the tuple is a certain answer (as far as the run saw) *)
  exact : bool;  (** the verdict is known exact (saturation reached) *)
}

(** Baseline: level-bounded chase then evaluate. [holds = true] is always
    sound; the verdict is definitive when [exact]. Raises
    [Invalid_argument] when [db] is not over the data schema. *)
val certain :
  ?max_level:int ->
  ?max_facts:int ->
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  Omq.t ->
  Instance.t ->
  Term.const list ->
  verdict

(** The FPT pipeline (guarded ontologies): linearize, chase the linear
    set level-bounded, evaluate tree-like UCQs with {!Tw_eval}. *)
val certain_fpt :
  ?max_level:int ->
  ?max_facts:int ->
  ?max_types:int ->
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
    with the answers found, not [|adom|^arity]). [fpt] routes through the
    Proposition 3.3(3) linearization (guarded ontologies only; raises
    [Invalid_argument] otherwise). The budget's fact axis bounds chase
    facts and emitted answers; a cut run returns a sound prefix. *)
val answer_set :
  ?fpt:bool ->
  ?max_level:int ->
  ?max_facts:int ->
  ?max_types:int ->
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  Omq.t ->
  Instance.t ->
  answer_set

(** Certain answers over active-domain tuples; the boolean reports
    exactness. Compatibility wrapper around {!answer_set} — the returned
    set is canonical (sorted, duplicate-free). *)
val answers :
  ?max_level:int ->
  ?max_facts:int ->
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  Omq.t ->
  Instance.t ->
  Term.const list list * bool
