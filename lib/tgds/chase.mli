(** The level-wise chase (§2).

    A trigger is a TGD with a homomorphism of its body into the current
    instance; triggers fire once, inventing fresh labelled nulls for the
    existential variables. The default, oblivious policy is the paper's
    (§2): the result is unique up to isomorphism and the level-bounded
    slices [chase^ℓ_s(D,Σ)] of Lemma A.1 are canonical.

    The chase runs on the semi-naive saturation of [lib/engine]
    ({!Engine.Saturate}), which delivers one s-level per pass. The test
    suite checks it level by level against a naive re-enumerating chase
    that honours the same budget cut points.

    Observability: a run is bounded by an {!Obs.Budget.t} (facts, levels,
    wall-clock deadline) — on violation the partial instance is returned
    with {!outcome}[ = Partial _] instead of the chase looping forever on
    a non-terminating program. Spans nest under [?obs]; {!report}
    assembles the deterministic JSON run report the CLI writes for
    [--stats]. *)

open Relational

type result

type policy = Engine.Saturate.policy =
  | Oblivious  (** the paper's semantics: fire regardless of the head *)
  | Restricted  (** skip triggers whose head is already satisfied *)

(** The one saturation engine; {!run} accepts it for callers that still
    name it. *)
type engine = [ `Indexed ]

(** The chase state at a {e clean pass boundary} — a pass that completed
    without a budget violation (including the final, saturation-
    discovering pass): the engine's {!Engine.Saturate.snapshot}, which
    {!Resil.Checkpoint} serialises. *)
type snapshot = Engine.Saturate.snapshot

(** [run ?engine ?policy ?max_level ?max_facts ?budget ?obs ?on_pass
    sigma db] — chase until saturation or until the strictest of
    [{max_level, max_facts}] and [budget] cuts the run.

    [on_pass ~level ~saturated take] is called after every clean pass
    boundary; [take ()] materialises a {!snapshot} of the state at that
    boundary (pay-per-use — not calling the thunk costs nothing).

    [on_fire] is called once per fired trigger, in the deterministic
    firing order, after the trigger's whole head has landed — the hook
    {!Incr}'s derivation ledger records support with. *)
val run :
  ?engine:engine ->
  ?policy:policy ->
  ?max_level:int ->
  ?max_facts:int ->
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  ?on_pass:(level:int -> saturated:bool -> (unit -> snapshot) -> unit) ->
  ?on_fire:(Engine.Saturate.firing -> unit) ->
  Tgd.t list ->
  Instance.t ->
  result

(** [run_store … sigma idx] — {!run} over a loaded store: [idx] holds
    the database, every fact at s-level 0 (as {!Engine.Index.of_facts}
    files it), and the chase saturates it in place. [run … sigma db] is
    [run_store … sigma (Engine.Index.of_instance db)]. *)
val run_store :
  ?policy:policy ->
  ?max_level:int ->
  ?max_facts:int ->
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  ?on_pass:(level:int -> saturated:bool -> (unit -> snapshot) -> unit) ->
  ?on_fire:(Engine.Saturate.firing -> unit) ->
  Tgd.t list ->
  Engine.Index.t ->
  result

(** [resume … sigma snapshot] — continue a chase from a
    checkpointed boundary as if never interrupted: the continuation fires
    the same per-pass trigger sets as the uninterrupted run, so the final
    result agrees on facts (up to renaming of nulls invented after the
    boundary), s-levels, trigger totals, and outcome. [sigma] and the
    effective budget must match the original run; the policy is the
    snapshot's. Side effect: the global null supply is reset to the
    snapshot's null count ({!Engine.Saturate.resume}). *)
val resume :
  ?max_level:int ->
  ?max_facts:int ->
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  ?on_pass:(level:int -> saturated:bool -> (unit -> snapshot) -> unit) ->
  ?on_fire:(Engine.Saturate.firing -> unit) ->
  Tgd.t list ->
  snapshot ->
  result

(** The chased instance. *)
val instance : result -> Instance.t

(** No unfired trigger remained — the chase terminated. *)
val saturated : result -> bool

(** Why the run stopped: [Complete] (saturated, or an explicit
    [max_level]/[max_facts] bound was never hit… i.e. no budget fired) or
    [Partial violation]. *)
val outcome : result -> Obs.Budget.outcome

(** The chased instance as the engine's indexed store. *)
val index : result -> Engine.Index.t

(** The saturation-engine result (always [Some]). *)
val engine_result : result -> Engine.Saturate.result option

(** New facts at levels 1, 2, … (computed from the s-levels). *)
val facts_per_level : result -> int list

(** Highest level reached. *)
val max_level : result -> int

(** [up_to_level r l] — the sub-instance of facts with s-level ≤ [l]
    ([chase^l_s(D,Σ)] when the run reached level [l]). *)
val up_to_level : result -> int -> Instance.t

(** The s-level of a fact of the result. *)
val level : result -> Fact.t -> int option

(** The ground part [chase↓]: facts without invented nulls. *)
val ground_part : result -> Instance.t

(** [report ?name r] — the run report: outcome, saturation flag, fact
    counts per level, trigger totals, the index/joiner counters and the
    span tree. Deterministic modulo timing floats. *)
val report : ?name:string -> result -> Obs.Report.t

(** Chase and return the instance. *)
val chase :
  ?max_level:int ->
  ?max_facts:int ->
  ?budget:Obs.Budget.t ->
  Tgd.t list ->
  Instance.t ->
  Instance.t

(** [certain ?max_level sigma db q c̄] — sound bounded check of
    [c̄ ∈ q(chase(db,sigma))] (Proposition 3.1); the boolean reports
    whether the run saturated (verdict then exact). *)
val certain :
  ?max_level:int ->
  ?max_facts:int ->
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  Tgd.t list ->
  Instance.t ->
  Ucq.t ->
  Term.const list ->
  bool * bool
