(** The level-wise chase (§2) on the semi-naive engine of [lib/engine];
    see the interface. *)

open Relational

type result = {
  sat : Engine.Saturate.result;
  instance : Instance.t Lazy.t;
  span : Obs.Span.t;  (** the [chase] span around the saturation's *)
}

type policy = Engine.Saturate.policy = Oblivious | Restricted
type engine = [ `Indexed ]
type snapshot = Engine.Saturate.snapshot

let make_budget ~max_level ~max_facts ~budget =
  let legacy =
    match (max_level, max_facts) with
    | None, None -> Obs.Budget.unlimited
    | _ -> Obs.Budget.create ?max_facts ?max_levels:max_level ()
  in
  match budget with
  | None -> legacy
  | Some b -> Obs.Budget.meet legacy b

(* Run [saturate] under a fresh [chase] span (a child of [obs] if given). *)
let in_span obs saturate =
  let span =
    match obs with
    | Some parent -> Obs.Span.enter parent "chase"
    | None -> Obs.Span.root "chase"
  in
  let sat = saturate span in
  Obs.Span.exit span;
  { sat; instance = lazy (Engine.Index.to_instance sat.Engine.Saturate.index); span }

let run_store ?(policy = Oblivious) ?max_level ?max_facts ?budget ?obs ?on_pass
    ?on_fire sigma idx =
  let budget = make_budget ~max_level ~max_facts ~budget in
  in_span obs (fun span ->
      Engine.Saturate.run ~policy ~budget ~obs:span ?on_pass ?on_fire
        (sigma : Tgd.t list :> Engine.Saturate.rule list)
        idx)

let run ?engine:(_ : engine option) ?policy ?max_level ?max_facts ?budget ?obs
    ?on_pass ?on_fire sigma db =
  run_store ?policy ?max_level ?max_facts ?budget ?obs ?on_pass ?on_fire sigma
    (Engine.Index.of_instance db)

let resume ?max_level ?max_facts ?budget ?obs ?on_pass ?on_fire sigma s =
  let budget = make_budget ~max_level ~max_facts ~budget in
  in_span obs (fun span ->
      Engine.Saturate.resume ~budget ~obs:span ?on_pass ?on_fire
        (sigma : Tgd.t list :> Engine.Saturate.rule list)
        s)

(** [instance r] — the chased instance. *)
let instance (r : result) = Lazy.force r.instance

let saturated (r : result) = r.sat.Engine.Saturate.saturated
let outcome (r : result) = r.sat.Engine.Saturate.outcome
let engine_result (r : result) = Some r.sat
let max_level (r : result) = r.sat.Engine.Saturate.max_level
let index (r : result) = r.sat.Engine.Saturate.index

(* s-level census, read from the store's level column: a fact derived at
   pass ℓ has s-level ℓ. *)
let facts_per_level (r : result) =
  let max_level = max_level r in
  if max_level = 0 then []
  else begin
    let counts = Array.make (max_level + 1) 0 in
    Engine.Index.fold_levels
      (fun l () -> if l >= 1 && l <= max_level then counts.(l) <- counts.(l) + 1)
      (index r) ();
    List.init max_level (fun i -> counts.(i + 1))
  end

(** [level r f] — the s-level of a fact of the result. *)
let level (r : result) f = Engine.Index.level (index r) f

(** [up_to_level r l] — the sub-instance of facts with s-level ≤ [l]
    (i.e. [chase^l_s(D,Σ)] when the run reached at least level [l]). *)
let up_to_level (r : result) l =
  Instance.filter
    (fun f -> match level r f with Some lv -> lv <= l | None -> true)
    (instance r)

(** The ground part [chase↓]: facts whose constants are all from [dom db]
    (equivalently, contain no labelled null invented by the chase). *)
let ground_part (r : result) =
  Instance.filter (fun f -> not (Fact.is_ground_of_nulls f)) (instance r)

let report ?(name = "chase") (r : result) =
  let rep =
    Obs.Report.create ~metrics:(Engine.Index.metrics (index r)) ~span:r.span name
  in
  Obs.Report.set_outcome rep (outcome r);
  Obs.Report.add_field rep "saturated" (Obs.Json.Bool (saturated r));
  Obs.Report.add_field rep "max_level" (Obs.Json.Int (max_level r));
  Obs.Report.add_field rep "facts" (Obs.Json.Int (Engine.Index.size (index r)));
  Obs.Report.add_field rep "facts_per_level"
    (Obs.Json.List (List.map (fun n -> Obs.Json.Int n) (facts_per_level r)));
  Obs.Report.add_field rep "triggers_fired"
    (Obs.Json.Int r.sat.Engine.Saturate.triggers_fired);
  Obs.Report.add_field rep "triggers_dismissed"
    (Obs.Json.Int r.sat.Engine.Saturate.triggers_dismissed);
  rep

(** Convenience: chase and return the instance. *)
let chase ?max_level ?max_facts ?budget sigma db =
  instance (run ?max_level ?max_facts ?budget sigma db)

(** [certain ?max_level sigma db q tuple] — sound check that
    [tuple ∈ q(chase(db,sigma))] using a level-bounded chase; complete when
    the run saturates (Proposition 3.1). Returns the verdict together with
    whether it is known complete. *)
let certain ?(max_level = 6) ?max_facts ?budget ?obs sigma db (q : Ucq.t) tuple
    =
  let r = run ~max_level ?max_facts ?budget ?obs sigma db in
  (Engine.Joiner.entails_ucq (index r) q tuple, saturated r)
