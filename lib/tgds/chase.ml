(** The oblivious chase (§2), level-wise; see the interface.

    Both engines honour the same budget cut points — a check before each
    pass (with the level about to run) and a trigger-atomic re-check
    after each firing — so budgeted runs agree level by level with each
    other and with unbudgeted runs truncated at the cut. *)

open Relational
open Relational.Term

type result = {
  instance : Instance.t Lazy.t;
  level_of : (Fact.t, int) Hashtbl.t;
  saturated : bool;
  max_level : int;
  index : Engine.Index.t option;  (** the engine's store, when indexed *)
  engine_result : Engine.Saturate.result option;
  outcome : Obs.Budget.outcome;
  span : Obs.Span.t;
}

(* Key identifying a trigger: TGD index + frontier/body binding. *)
let trigger_key i (b : Homomorphism.binding) (sigma_i : Tgd.t) =
  let bv = VarSet.elements (Tgd.body_vars sigma_i) in
  let img = List.map (fun x -> VarMap.find_opt x b) bv in
  (i, img)

type policy = Oblivious | Restricted
type engine = [ `Naive | `Indexed ]

(** Chase state at a clean pass boundary. Engine-agnostic — the facts with
    their s-levels determine everything a continuation needs under either
    engine — so a checkpoint taken by [`Indexed] can be resumed by
    [`Naive] (how the supervisor degrades). [snap_null_count] pins the
    fresh-null supply so a cross-process resume never re-issues a null id
    that already appears in the snapshot. *)
type snapshot = {
  snap_engine : engine;
  snap_policy : policy;
  snap_level : int;
  snap_saturated : bool;
  snap_null_count : int;
  snap_triggers_fired : int;
  snap_triggers_dismissed : int;
  snap_facts : (Fact.t * int) list;
  snap_counters : (string * int) list;  (** index metrics; [[]] after naive *)
}

let to_engine_snapshot (s : snapshot) : Engine.Saturate.snapshot =
  {
    Engine.Saturate.snap_facts = s.snap_facts;
    Engine.Saturate.snap_level = s.snap_level;
    Engine.Saturate.snap_saturated = s.snap_saturated;
    Engine.Saturate.snap_triggers_fired = s.snap_triggers_fired;
    Engine.Saturate.snap_triggers_dismissed = s.snap_triggers_dismissed;
    Engine.Saturate.snap_counters = s.snap_counters;
  }

let of_engine_snapshot ~policy (es : Engine.Saturate.snapshot) : snapshot =
  {
    snap_engine = `Indexed;
    snap_policy = policy;
    snap_level = es.Engine.Saturate.snap_level;
    snap_saturated = es.Engine.Saturate.snap_saturated;
    snap_null_count = Term.null_count ();
    snap_triggers_fired = es.Engine.Saturate.snap_triggers_fired;
    snap_triggers_dismissed = es.Engine.Saturate.snap_triggers_dismissed;
    snap_facts = es.Engine.Saturate.snap_facts;
    snap_counters = es.Engine.Saturate.snap_counters;
  }

(* Resumable state of the naive loop: either a fresh run over a database
   or a checkpointed boundary with the fired-trigger set reconstructed. *)
type naive_init = {
  n_inst : Instance.t;
  n_level_of : (Fact.t, int) Hashtbl.t;
  n_fired : (int * const option list, unit) Hashtbl.t;
  n_level : int;
  n_saturated : bool;
  n_fired_total : int;
  n_dismissed_total : int;
}

(* The original level-wise loop: every level re-enumerates all body
   homomorphisms of every TGD against the entire instance, deduplicating
   by trigger key. Budget checks sit at the same points as in
   {!Engine.Saturate.run}: top of pass with the level about to run, then
   trigger-atomically after each whole head lands. *)
let exec_naive ~policy ~budget ~span ~on_pass (init : naive_init) sigma =
  let sigma = Array.of_list sigma in
  let level_of = init.n_level_of in
  let fired = init.n_fired in
  let inst = ref init.n_inst in
  let saturated = ref init.n_saturated in
  let level = ref init.n_level in
  let fired_total = ref init.n_fired_total in
  let dismissed_total = ref init.n_dismissed_total in
  let violation = ref None in
  let take_snapshot () : snapshot =
    {
      snap_engine = `Naive;
      snap_policy = policy;
      snap_level = !level;
      snap_saturated = !saturated;
      snap_null_count = Term.null_count ();
      snap_triggers_fired = !fired_total;
      snap_triggers_dismissed = !dismissed_total;
      snap_facts = Hashtbl.fold (fun f l acc -> (f, l) :: acc) level_of [];
      snap_counters = [];
    }
  in
  while (not !saturated) && !violation = None do
    Obs.Probe.hit "chase.pass";
    match
      Obs.Budget.check budget ~facts:(Hashtbl.length level_of)
        ~level:(!level + 1)
    with
    | Some v -> violation := Some v
    | None ->
        let lspan = Obs.Span.enter span "level" in
        let pass_no = !level + 1 in
        let level_fired = ref 0 in
        (* collect unfired triggers whose body lies in the current instance *)
        let new_triggers = ref [] in
        Array.iteri
          (fun i t ->
            Homomorphism.fold_homs (Tgd.body t) !inst
              (fun b () ->
                let key = trigger_key i b t in
                if not (Hashtbl.mem fired key) then
                  let active =
                    match policy with
                    | Oblivious -> true
                    | Restricted ->
                        (* skip when the head is already witnessed *)
                        let init =
                          VarMap.filter
                            (fun x _ -> VarSet.mem x (Tgd.frontier t))
                            b
                        in
                        not (Homomorphism.exists ~init (Tgd.head t) !inst)
                  in
                  if active then new_triggers := (i, b, key) :: !new_triggers
                  else begin
                    incr dismissed_total;
                    Hashtbl.replace fired key ()
                  end)
              ())
          sigma;
        let new_count = ref 0 in
        if !new_triggers = [] then saturated := true
        else begin
          incr level;
          List.iter
            (fun (i, b, key) ->
              if !violation = None then begin
                Hashtbl.replace fired key ();
                incr level_fired;
                incr fired_total;
                let t = sigma.(i) in
                (* body image level *)
                let body_level =
                  List.fold_left
                    (fun acc a ->
                      let f = Fact.of_atom (Homomorphism.apply_binding b a) in
                      max acc (try Hashtbl.find level_of f with Not_found -> 0))
                    0 (Tgd.body t)
                in
                let fresh =
                  VarSet.fold
                    (fun z acc -> VarMap.add z (fresh_null ()) acc)
                    (Tgd.existential_vars t)
                    VarMap.empty
                in
                let full_binding =
                  VarMap.union (fun _ a _ -> Some a) b fresh
                in
                List.iter
                  (fun h ->
                    let f =
                      Fact.of_atom (Homomorphism.apply_binding full_binding h)
                    in
                    if not (Instance.mem f !inst) then begin
                      inst := Instance.add_fact f !inst;
                      Hashtbl.replace level_of f (body_level + 1);
                      incr new_count
                    end)
                  (Tgd.head t);
                match
                  Obs.Budget.check budget ~facts:(Hashtbl.length level_of)
                    ~level:!level
                with
                | Some v -> violation := Some v
                | None -> ()
              end)
            (List.rev !new_triggers)
        end;
        Obs.Span.set lspan "level" (Obs.Json.Int pass_no);
        Obs.Span.set lspan "triggers_fired" (Obs.Json.Int !level_fired);
        Obs.Span.set lspan "new_facts" (Obs.Json.Int !new_count);
        Obs.Span.exit lspan;
        (* Clean pass boundary — the state is fully reconstructible. *)
        (match on_pass with
        | Some cb when !violation = None ->
            cb ~level:!level ~saturated:!saturated take_snapshot
        | _ -> ())
  done;
  let outcome =
    match !violation with
    | Some v -> Obs.Budget.Partial v
    | None -> Obs.Budget.Complete
  in
  {
    instance = Lazy.from_val !inst;
    level_of;
    saturated = !saturated;
    max_level = !level;
    index = None;
    engine_result = None;
    outcome;
    span;
  }

let run_naive ~policy ~budget ~span ~on_pass sigma db =
  let level_of : (Fact.t, int) Hashtbl.t = Hashtbl.create 256 in
  Instance.iter (fun f -> Hashtbl.replace level_of f 0) db;
  exec_naive ~policy ~budget ~span ~on_pass
    {
      n_inst = db;
      n_level_of = level_of;
      n_fired = Hashtbl.create 256;
      n_level = 0;
      n_saturated = false;
      n_fired_total = 0;
      n_dismissed_total = 0;
    }
    sigma

let resume_naive ~budget ~span ~on_pass sigma (s : snapshot) =
  let level_of : (Fact.t, int) Hashtbl.t =
    Hashtbl.create (List.length s.snap_facts)
  in
  List.iter (fun (f, l) -> Hashtbl.replace level_of f l) s.snap_facts;
  let inst =
    List.fold_left
      (fun acc (f, _) -> Instance.add_fact f acc)
      Instance.empty s.snap_facts
  in
  (* Reconstruct the fired-trigger set. At a clean boundary after pass L
     every considered trigger — fired or dismissed — is marked, and the
     considered triggers are exactly those whose body maps into the
     instance as of pass L−1, i.e. into the facts of s-level ≤ L−1. *)
  let fired : (int * const option list, unit) Hashtbl.t =
    Hashtbl.create 256
  in
  let prior =
    Instance.filter
      (fun f ->
        match Hashtbl.find_opt level_of f with
        | Some l -> l <= s.snap_level - 1
        | None -> true)
      inst
  in
  List.iteri
    (fun i t ->
      Homomorphism.fold_homs (Tgd.body t) prior
        (fun b () -> Hashtbl.replace fired (trigger_key i b t) ())
        ())
    sigma;
  exec_naive ~policy:s.snap_policy ~budget ~span ~on_pass
    {
      n_inst = inst;
      n_level_of = level_of;
      n_fired = fired;
      n_level = s.snap_level;
      n_saturated = s.snap_saturated;
      n_fired_total = s.snap_triggers_fired;
      n_dismissed_total = s.snap_triggers_dismissed;
    }
    sigma

let engine_rules sigma =
  List.map
    (fun t -> Engine.Saturate.{ body = Tgd.body t; head = Tgd.head t })
    sigma

let engine_policy = function
  | Oblivious -> Engine.Saturate.Oblivious
  | Restricted -> Engine.Saturate.Restricted

let engine_on_pass ~policy on_pass =
  Option.map
    (fun cb ~level ~saturated take ->
      cb ~level ~saturated (fun () -> of_engine_snapshot ~policy (take ())))
    on_pass

let of_engine_result ~span (r : Engine.Saturate.result) =
  {
    instance = lazy (Engine.Index.to_instance r.Engine.Saturate.index);
    level_of = r.Engine.Saturate.level_of;
    saturated = r.Engine.Saturate.saturated;
    max_level = r.Engine.Saturate.max_level;
    index = Some r.Engine.Saturate.index;
    engine_result = Some r;
    outcome = r.Engine.Saturate.outcome;
    span;
  }

let run_indexed ~policy ~budget ~span ~on_pass ~on_fire sigma db =
  let r =
    Engine.Saturate.run ~policy:(engine_policy policy) ~budget ~obs:span
      ?on_pass:(engine_on_pass ~policy on_pass)
      ?on_fire (engine_rules sigma) db
  in
  of_engine_result ~span r

let make_budget ~max_level ~max_facts ~budget =
  let legacy =
    match (max_level, max_facts) with
    | None, None -> Obs.Budget.unlimited
    | _ -> Obs.Budget.create ?max_facts ?max_levels:max_level ()
  in
  match budget with
  | None -> legacy
  | Some b -> Obs.Budget.meet legacy b

let make_span obs =
  match obs with
  | Some parent -> Obs.Span.enter parent "chase"
  | None -> Obs.Span.root "chase"

let run ?(engine = `Indexed) ?(policy = Oblivious) ?max_level ?max_facts
    ?budget ?obs ?on_pass ?on_fire sigma db =
  let budget = make_budget ~max_level ~max_facts ~budget in
  let span = make_span obs in
  let r =
    match engine with
    | `Naive ->
        if on_fire <> None then
          invalid_arg "Chase.run: ?on_fire requires an indexed engine";
        run_naive ~policy ~budget ~span ~on_pass sigma db
    | `Indexed ->
        run_indexed ~policy ~budget ~span ~on_pass ~on_fire sigma db
  in
  Obs.Span.exit span;
  r

let resume ?engine ?max_level ?max_facts ?budget ?obs ?on_pass ?on_fire sigma
    (s : snapshot) =
  let engine = match engine with Some e -> e | None -> s.snap_engine in
  let budget = make_budget ~max_level ~max_facts ~budget in
  let span = make_span obs in
  (* Pin the null supply to the boundary. The snapshot's facts only hold
     nulls ≤ [snap_null_count]; anything invented after the boundary (by
     the interrupted attempt, possibly in another process) was discarded
     with that attempt, so the ids may — and for cross-process alignment
     with the uninterrupted run, must — be re-issued. *)
  Term.set_null_count s.snap_null_count;
  let r =
    match engine with
    | `Naive ->
        if on_fire <> None then
          invalid_arg "Chase.resume: ?on_fire requires an indexed engine";
        resume_naive ~budget ~span ~on_pass sigma s
    | `Indexed ->
        of_engine_result ~span
          (Engine.Saturate.resume
             ~policy:(engine_policy s.snap_policy)
             ~budget ~obs:span
             ?on_pass:(engine_on_pass ~policy:s.snap_policy on_pass)
             ?on_fire (engine_rules sigma) (to_engine_snapshot s))
  in
  Obs.Span.exit span;
  r

(** [instance r] — the chased instance. *)
let instance (r : result) = Lazy.force r.instance

let saturated (r : result) = r.saturated
let outcome (r : result) = r.outcome
let engine_result (r : result) = r.engine_result
let max_level (r : result) = r.max_level

(** [index r] — the chased instance as an {!Engine.Index.t}, reusing the
    engine's store when the run was indexed. *)
let index (r : result) =
  match r.index with
  | Some idx -> idx
  | None -> Engine.Index.of_instance (Lazy.force r.instance)

(* s-level census; derived from [level_of], so it agrees between engines
   (a fact derived at pass ℓ has s-level ℓ under both). *)
let facts_per_level (r : result) =
  if r.max_level = 0 then []
  else begin
    let counts = Array.make (r.max_level + 1) 0 in
    Hashtbl.iter
      (fun _ l -> if l >= 1 && l <= r.max_level then counts.(l) <- counts.(l) + 1)
      r.level_of;
    List.init r.max_level (fun i -> counts.(i + 1))
  end

(** [up_to_level r l] — the sub-instance of facts with s-level ≤ [l]
    (i.e. [chase^l_s(D,Σ)] when the run reached at least level [l]). *)
let up_to_level (r : result) l =
  Instance.filter
    (fun f -> match Hashtbl.find_opt r.level_of f with Some lv -> lv <= l | None -> true)
    (Lazy.force r.instance)

(** [level r f] — the s-level of a fact of the result. *)
let level (r : result) f = Hashtbl.find_opt r.level_of f

(** The ground part [chase↓]: facts whose constants are all from [dom db]
    (equivalently, contain no labelled null invented by the chase). *)
let ground_part (r : result) =
  Instance.filter (fun f -> not (Fact.is_ground_of_nulls f)) (Lazy.force r.instance)

let report ?(name = "chase") (r : result) =
  let idx = index r in
  let rep =
    Obs.Report.create ~metrics:(Engine.Index.metrics idx) ~span:r.span name
  in
  Obs.Report.set_outcome rep r.outcome;
  Obs.Report.add_field rep "saturated" (Obs.Json.Bool r.saturated);
  Obs.Report.add_field rep "max_level" (Obs.Json.Int r.max_level);
  Obs.Report.add_field rep "facts" (Obs.Json.Int (Hashtbl.length r.level_of));
  Obs.Report.add_field rep "facts_per_level"
    (Obs.Json.List (List.map (fun n -> Obs.Json.Int n) (facts_per_level r)));
  (match r.engine_result with
  | Some er ->
      Obs.Report.add_field rep "triggers_fired"
        (Obs.Json.Int er.Engine.Saturate.triggers_fired);
      Obs.Report.add_field rep "triggers_dismissed"
        (Obs.Json.Int er.Engine.Saturate.triggers_dismissed)
  | None -> ());
  rep

(** Convenience: chase and return the instance. *)
let chase ?engine ?max_level ?max_facts ?budget sigma db =
  instance (run ?engine ?max_level ?max_facts ?budget sigma db)

(** [certain ?max_level sigma db q tuple] — sound check that
    [tuple ∈ q(chase(db,sigma))] using a level-bounded chase; complete when
    the run saturates (Proposition 3.1). Returns the verdict together with
    whether it is known complete. *)
let certain ?engine ?(max_level = 6) ?max_facts ?budget ?obs sigma db
    (q : Ucq.t) tuple =
  let r = run ?engine ~max_level ?max_facts ?budget ?obs sigma db in
  (Engine.Joiner.entails_ucq (index r) q tuple, r.saturated)
