(** Open-world OMQ evaluation (§3.1).

    Two routes, each behind both entry points ({!certain} for one tuple,
    {!answer_set} for all of them):

    - the baseline of Proposition 3.1 — evaluate the UCQ over a
      level-bounded oblivious chase of the input database;
    - [~fpt:true], the FPT algorithm of Proposition 3.3(3) for guarded
      ontologies — linearize (Lemma A.3) and chase the linear set
      level-bounded (Lemma A.1) from the typed database D*.

    Either way the query runs on the chase's own indexed store
    ([Engine.Joiner] for a tuple, [Engine.Enumerate] for the set), so no
    relation is rescanned per query atom. {!certain_atomic} answers atomic
    ground queries exactly via the ground closure.

    Observability: every entry point takes [?budget] (forwarded to the
    chase, which then stops gracefully instead of looping) and [?obs] —
    the pipeline phases land as child spans ([rewrite] for the
    linearization, [chase] from the chase itself, [match] for query
    evaluation). *)

open Relational
module Chase = Tgds.Chase

type verdict = {
  holds : bool;  (** the tuple is a certain answer (as far as the run saw) *)
  exact : bool;  (** the verdict is known to be exact (saturation reached) *)
}

(* The chase step of both entry points: the route's chased store and
   whether the route itself is complete (the linearization may cut its
   type exploration). The baseline chases Σ over D to level 8 by
   default; the FPT route chases Σ* over D* to level 10, its data-side
   work polynomial and its type exploration independent of the data.
   [entry] names the caller in precondition failures. *)
let chase ~entry ~fpt ?max_level ?max_facts ?budget ?obs (q : Omq.t) db =
  if fpt && not (Omq.in_guarded q) then
    invalid_arg (entry ^ ": fpt requires a guarded ontology");
  if not (Omq.accepts_database q db) then
    invalid_arg (entry ^ ": not a database over the data schema");
  if fpt then
    let lin =
      Obs.Span.timed obs "rewrite" @@ fun () ->
      Tgds.Linearize.make (Omq.ontology q) db
    in
    ( Chase.run_store
        ~max_level:(Option.value max_level ~default:10)
        ?max_facts ?budget ?obs lin.Tgds.Linearize.sigma_star
        (Engine.Index.of_facts lin.Tgds.Linearize.db_star),
      lin.Tgds.Linearize.complete )
  else
    ( Chase.run
        ~max_level:(Option.value max_level ~default:8)
        ?max_facts ?budget ?obs (Omq.ontology q) db,
      true )

(** Chase then evaluate the one tuple. [exact] is true iff the chase
    saturated (and the route is complete), in which case the verdict is
    definitive in both directions; a [holds = true] verdict is always
    sound. *)
let certain ?(fpt = false) ?max_level ?max_facts ?budget ?obs (q : Omq.t) db
    tuple =
  let r, complete =
    chase ~entry:"Omq_eval.certain" ~fpt ?max_level ?max_facts ?budget ?obs q db
  in
  let holds =
    Obs.Span.timed obs "match" @@ fun () ->
    Engine.Joiner.entails_ucq (Chase.index r) (Omq.query q) tuple
  in
  { holds; exact = Chase.saturated r && complete }

(** Exact certain answering of an atomic ground query under a guarded
    ontology, via the ground closure. *)
let certain_atomic (ontology : Tgds.Tgd.t list) db (fact : Fact.t) =
  Tgds.Ground_closure.entails_atom ontology db fact

(* ------------------------------------------------------------------ *)
(* Answer enumeration                                                    *)
(* ------------------------------------------------------------------ *)

type answer_set = {
  tuples : Term.const list list;
  exact : bool;
  outcome : Obs.Budget.outcome;
}

(** [answer_set q db] — the certain answers over tuples of the active
    domain, enumerated output-sensitively from the chased index
    ({!Engine.Enumerate}) instead of entailment-testing the
    [|adom|^arity] cross product. [fpt] selects the route, as for
    {!certain}. The budget bounds the chase {e and} the enumeration (fact
    axis = emitted answers); a cut run returns a sound prefix with
    [outcome = Partial _]. *)
let answer_set ?(fpt = false) ?max_level ?max_facts ?budget ?obs (q : Omq.t)
    db =
  let r, complete =
    chase ~entry:"Omq_eval.answer_set" ~fpt ?max_level ?max_facts ?budget ?obs
      q db
  in
  let er =
    Obs.Span.nest obs "match" @@ fun sp ->
    Engine.Enumerate.ucq ?budget ?obs:sp ~universe:(Instance.dom db)
      (Chase.index r) (Omq.query q)
  in
  let enum_complete =
    match er.Engine.Enumerate.outcome with
    | Obs.Budget.Complete -> true
    | Obs.Budget.Partial _ -> false
  in
  let outcome =
    match Chase.outcome r with
    | Obs.Budget.Partial _ as o -> o
    | Obs.Budget.Complete -> er.Engine.Enumerate.outcome
  in
  {
    tuples = er.Engine.Enumerate.answers;
    exact = Chase.saturated r && complete && enum_complete;
    outcome;
  }
