(** Open-world OMQ evaluation (§3.1).

    Three engines:

    - {!certain}: the baseline of Proposition 3.1 — evaluate the UCQ over a
      level-bounded oblivious chase of the input database.
    - {!certain_fpt}: the FPT algorithm of Proposition 3.3(3) for guarded
      ontologies — linearize (Lemma A.3), chase the linear set level-bounded
      (Lemma A.1) and evaluate with the bounded-treewidth evaluator of
      Proposition 2.1 when the UCQ is tree-like.
    - {!certain_atomic}: exact evaluation of atomic queries over ground
      tuples for guarded ontologies via the ground closure (always
      terminating, polynomial in the data for fixed Σ).

    UCQ checks over chased instances run through the indexed joiner
    ([Engine.Joiner]): the chase already hands back its fact store, so no
    relation is rescanned per query atom.

    Observability: every engine takes [?budget] (forwarded to the chase,
    which then stops gracefully instead of looping) and [?obs] — the
    pipeline phases land as child spans ([rewrite] for the linearization,
    [chase] from the chase itself, [match] for query evaluation). *)

open Relational
module Chase = Tgds.Chase

type verdict = {
  holds : bool;  (** the tuple is a certain answer (as far as the run saw) *)
  exact : bool;  (** the verdict is known to be exact (saturation reached) *)
}

(** Baseline engine: chase then evaluate (Proposition 3.1). [exact] is true
    iff the chase saturated, in which case the verdict is definitive in both
    directions; a [holds = true] verdict is always sound. *)
let certain ?(max_level = 8) ?max_facts ?budget ?obs (q : Omq.t) db tuple =
  if not (Omq.accepts_database q db) then
    invalid_arg "Omq_eval.certain: not a database over the data schema";
  let r = Chase.run ~max_level ?max_facts ?budget ?obs (Omq.ontology q) db in
  let holds =
    Obs.Span.timed obs "match" @@ fun () ->
    Engine.Joiner.entails_ucq (Chase.index r) (Omq.query q) tuple
  in
  { holds; exact = Chase.saturated r }

(** The FPT pipeline of Proposition 3.3(3): requires [Σ ∈ G]. The data-side
    work is polynomial (building [D*] via the ground closure and chasing
    the linear [Σ*] to a level depending only on [Q]); the query-side work
    is the type exploration, independent of the data. *)
let certain_fpt ?(max_level = 10) ?max_facts ?max_types ?budget ?obs
    (q : Omq.t) db tuple =
  if not (Omq.in_guarded q) then
    invalid_arg "Omq_eval.certain_fpt: ontology must be guarded";
  if not (Omq.accepts_database q db) then
    invalid_arg "Omq_eval.certain_fpt: not a database over the data schema";
  let lin =
    Obs.Span.timed obs "rewrite" @@ fun () ->
    Tgds.Linearize.make ?max_types (Omq.ontology q) db
  in
  let r = Chase.run ~max_level ?max_facts ?budget ?obs
      lin.Tgds.Linearize.sigma_star lin.Tgds.Linearize.db_star in
  let ucq = Omq.query q in
  let holds =
    Obs.Span.timed obs "match" @@ fun () ->
    if Ucq.in_ucqk 2 ucq then Tw_eval.entails_ucq (Chase.instance r) ucq tuple
    else Engine.Joiner.entails_ucq (Chase.index r) ucq tuple
  in
  { holds; exact = Chase.saturated r && lin.Tgds.Linearize.complete }

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

(* [timed] without losing the span: the "match" child is handed to the
   enumerator so the per-disjunct spans nest under it. *)
let in_match_span obs f =
  match obs with
  | None -> f None
  | Some parent ->
      let sp = Obs.Span.enter parent "match" in
      Fun.protect ~finally:(fun () -> Obs.Span.exit sp) (fun () -> f (Some sp))

(** [answer_set q db] — the certain answers over tuples of the active
    domain, enumerated output-sensitively from the chased index
    ({!Engine.Enumerate}) instead of entailment-testing the
    [|adom|^arity] cross product. [fpt] routes through the linearization
    of Proposition 3.3(3) (requires [Σ ∈ G]). The budget bounds the chase
    {e and} the enumeration (fact axis = emitted answers); a cut run
    returns a sound prefix with [outcome = Partial _]. *)
let answer_set ?(fpt = false) ?max_level ?max_facts ?max_types ?budget
    ?obs (q : Omq.t) db =
  let r, rewrite_complete =
    if fpt then begin
      if not (Omq.in_guarded q) then
        invalid_arg "Omq_eval.answer_set: fpt requires a guarded ontology";
      let lin =
        Obs.Span.timed obs "rewrite" @@ fun () ->
        Tgds.Linearize.make ?max_types (Omq.ontology q) db
      in
      ( Chase.run
          ~max_level:(Option.value max_level ~default:10)
          ?max_facts ?budget ?obs lin.Tgds.Linearize.sigma_star
          lin.Tgds.Linearize.db_star,
        lin.Tgds.Linearize.complete )
    end
    else
      ( Chase.run
          ~max_level:(Option.value max_level ~default:8)
          ?max_facts ?budget ?obs (Omq.ontology q) db,
        true )
  in
  let er =
    in_match_span obs @@ fun sp ->
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
    exact = Chase.saturated r && rewrite_complete && enum_complete;
    outcome;
  }

(** [answers ?max_level q db] — the certain answers over tuples of the
    active domain (sound; exact when the chase saturates). Compatibility
    wrapper around {!answer_set}; the set is canonical (sorted,
    duplicate-free). *)
let answers ?max_level ?max_facts ?budget ?obs (q : Omq.t) db =
  let r = answer_set ?max_level ?max_facts ?budget ?obs q db in
  (r.tuples, r.exact)
