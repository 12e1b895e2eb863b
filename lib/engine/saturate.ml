(** Semi-naive saturation; see the interface for the level-equivalence
    argument. The driver keeps the naive chase's observable behaviour —
    trigger keys, per-level trigger sets, level assignment, policy and
    budget cutoffs — while enumerating each trigger exactly once, at
    the level where the last fact of its body appears.

    Crash safety: the state at a clean pass boundary is fully described by
    the facts with their s-levels plus a handful of scalars — the delta of
    the next pass is exactly the facts of the last level, and a trigger is
    (re-)enumerable iff its body touches that delta. {!resume} rebuilds
    the index and delta from such a {!snapshot} and continues the loop;
    the continuation fires the same per-pass trigger sets as the
    uninterrupted run (facts agree up to null renaming, s-levels and
    outcome exactly). *)

open Relational
open Relational.Term

type policy = Oblivious | Restricted
type rule = { body : Atom.t list; head : Atom.t list }

type snapshot = {
  snap_facts : (Fact.t * int) list;  (** every fact with its s-level *)
  snap_level : int;
  snap_saturated : bool;
  snap_triggers_fired : int;
  snap_triggers_dismissed : int;
  snap_counters : (string * int) list;
}

type result = {
  index : Index.t;
  level_of : (Fact.t, int) Hashtbl.t;
  saturated : bool;
  max_level : int;
  outcome : Obs.Budget.outcome;
  triggers_fired : int;
  triggers_dismissed : int;
  facts_per_level : int list;
  span : Obs.Span.t;
}

type firing = {
  fire_rule : int;
  fire_key : int * const option list;
  fire_body : Fact.t list;
  fire_outs : (Fact.t * bool) list;
}

(* Key identifying a trigger: rule index + body-variable image (same shape
   as the naive chase's key, so the two engines dismiss identically). *)
let trigger_key i (b : Homomorphism.binding) body_vars =
  (i, List.map (fun x -> VarMap.find_opt x b) body_vars)

(* Group the delta by predicate so each pivot only sees matching facts. *)
let group_by_pred facts =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let cur = try Hashtbl.find tbl (Fact.pred f) with Not_found -> [] in
      Hashtbl.replace tbl (Fact.pred f) (f :: cur))
    facts;
  tbl

(* [pivots body] — [(pivot, body reordered pivot-first)] for each body
   position; a predicate repeated in the body is pivoted once per
   occurrence (the per-pass key set deduplicates the bindings). *)
let pivots body =
  List.mapi
    (fun i a -> (a, a :: List.filteri (fun j _ -> j <> i) body))
    body

(* Instantiate an atom whose variables are all bound, straight to a fact
   (no intermediate ground atom). *)
let ground (b : Homomorphism.binding) a =
  Fact.make (Atom.pred a)
    (List.map
       (function Const c -> c | Var x -> VarMap.find x b)
       (Atom.args a))

(* The resumable state threaded into the driver: either a fresh run over a
   database or the reconstruction of a checkpointed boundary. *)
type init = {
  i_idx : Index.t;
  i_level_of : (Fact.t, int) Hashtbl.t;
  i_delta : Fact.t list;
  i_level : int;
  i_saturated : bool;
  i_first_pass : bool;
  i_fired : int;
  i_dismissed : int;
  i_fpl : int list;  (* reversed: newest level first *)
}

let exec ~policy ~budget ~span ~on_pass ~on_fire init rules =
  let rules = Array.of_list rules in
  let info =
    Array.map
      (fun r ->
        let vars_of atoms =
          List.fold_left
            (fun acc a -> VarSet.union (Atom.vars a) acc)
            VarSet.empty atoms
        in
        let bv = vars_of r.body and hv = vars_of r.head in
        ( VarSet.elements bv,
          VarSet.elements (VarSet.diff hv bv),
          VarSet.inter bv hv,
          pivots r.body ))
      rules
  in
  let idx = init.i_idx in
  let level_of = init.i_level_of in
  let fired = Hashtbl.create 256 in
  let triggers_fired = ref init.i_fired
  and triggers_dismissed = ref init.i_dismissed in
  let facts_per_level = ref init.i_fpl in
  let delta = ref init.i_delta in
  let first_pass = ref init.i_first_pass in
  let saturated = ref init.i_saturated in
  let level = ref init.i_level in
  let violation = ref None in
  let overflow () = !violation <> None in
  let take_snapshot () =
    {
      snap_facts = Hashtbl.fold (fun f l acc -> (f, l) :: acc) level_of [];
      snap_level = !level;
      snap_saturated = !saturated;
      snap_triggers_fired = !triggers_fired;
      snap_triggers_dismissed = !triggers_dismissed;
      snap_counters = Obs.Metrics.counters (Index.metrics idx);
    }
  in
  while (not !saturated) && not (overflow ()) do
    Obs.Probe.hit "engine.pass";
    match
      Obs.Budget.check budget ~facts:(Hashtbl.length level_of)
        ~level:(!level + 1)
    with
    | Some v -> violation := Some v
    | None ->
        let lspan = Obs.Span.enter span "level" in
        let pass_no = !level + 1 in
        let level_fired = ref 0 and level_dismissed = ref 0 in
        let delta_by_pred = group_by_pred !delta in
        let pending = Hashtbl.create 64 in
        let new_triggers = ref [] in
        let consider i b =
          let body_vars, _, frontier, _ = info.(i) in
          let key = trigger_key i b body_vars in
          if not (Hashtbl.mem fired key || Hashtbl.mem pending key) then begin
            let active =
              match policy with
              | Oblivious -> true
              | Restricted ->
                  let init =
                    VarMap.filter (fun x _ -> VarSet.mem x frontier) b
                  in
                  not (Joiner.exists ~init rules.(i).head idx)
            in
            if active then begin
              Hashtbl.replace pending key ();
              new_triggers := (i, b, key) :: !new_triggers
            end
            else begin
              incr triggers_dismissed;
              incr level_dismissed;
              Hashtbl.replace fired key ()
            end
          end
        in
        Array.iteri
          (fun i r ->
            if r.body = [] then begin
              (* bodiless rules have a single (empty) trigger; it exists
                 from the start, so only the first pass needs to consider
                 it *)
              if !first_pass then consider i VarMap.empty
            end
            else
              let _, _, _, pvs = info.(i) in
              List.iter
                (fun (pivot, reordered) ->
                  match Hashtbl.find_opt delta_by_pred (Atom.pred pivot) with
                  | None -> ()
                  | Some dfacts ->
                      Joiner.fold ~delta:dfacts reordered idx
                        (fun b () -> consider i b)
                        ())
                pvs)
          rules;
        first_pass := false;
        if !new_triggers = [] then saturated := true
        else begin
          incr level;
          let new_delta = ref [] in
          let new_count = ref 0 in
          List.iter
            (fun (i, b, key) ->
              if not (overflow ()) then begin
                Hashtbl.replace fired key ();
                incr triggers_fired;
                incr level_fired;
                let r = rules.(i) in
                let _, existentials, _, _ = info.(i) in
                let body_facts = List.map (ground b) r.body in
                let body_level =
                  List.fold_left
                    (fun acc f ->
                      max acc (try Hashtbl.find level_of f with Not_found -> 0))
                    0 body_facts
                in
                let full_binding =
                  List.fold_left
                    (fun acc z -> VarMap.add z (fresh_null ()) acc)
                    b existentials
                in
                let land_head h =
                  let f = ground full_binding h in
                  let fresh = Index.insert f idx in
                  if fresh then begin
                    Hashtbl.replace level_of f (body_level + 1);
                    incr new_count;
                    new_delta := f :: !new_delta
                  end;
                  (f, fresh)
                in
                (match on_fire with
                | None -> List.iter (fun h -> ignore (land_head h)) r.head
                | Some cb ->
                    let outs = List.map land_head r.head in
                    cb
                      {
                        fire_rule = i;
                        fire_key = key;
                        fire_body = body_facts;
                        fire_outs = outs;
                      });
                (* the budget is re-checked trigger-atomically: the
                   overflowing trigger's whole head lands (matching the
                   naive loop), remaining triggers are skipped *)
                match
                  Obs.Budget.check budget ~facts:(Hashtbl.length level_of)
                    ~level:!level
                with
                | Some v -> violation := Some v
                | None -> ()
              end)
            (List.rev !new_triggers);
          facts_per_level := !new_count :: !facts_per_level;
          delta := !new_delta
        end;
        Obs.Span.set lspan "level" (Obs.Json.Int pass_no);
        Obs.Span.set lspan "triggers_fired" (Obs.Json.Int !level_fired);
        Obs.Span.set lspan "triggers_dismissed" (Obs.Json.Int !level_dismissed);
        Obs.Span.set lspan "new_facts"
          (Obs.Json.Int
             (match !facts_per_level with
             | n :: _ when not !saturated -> n
             | _ -> 0));
        Obs.Span.exit lspan;
        (* Clean pass boundary (no mid-pass cutoff): the state is fully
           reconstructible — offer a checkpoint. *)
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
    index = idx;
    level_of;
    saturated = !saturated;
    max_level = !level;
    outcome;
    triggers_fired = !triggers_fired;
    triggers_dismissed = !triggers_dismissed;
    facts_per_level = List.rev !facts_per_level;
    span;
  }

let make_span obs =
  match obs with
  | Some parent -> Obs.Span.enter parent "saturate"
  | None -> Obs.Span.root "saturate"

let run ?(policy = Oblivious) ?(budget = Obs.Budget.unlimited) ?obs ?on_pass
    ?on_fire rules db =
  let span = make_span obs in
  let level_of : (Fact.t, int) Hashtbl.t = Hashtbl.create 256 in
  Instance.iter (fun f -> Hashtbl.replace level_of f 0) db;
  let init =
    {
      i_idx = Index.of_instance db;
      i_level_of = level_of;
      i_delta = Instance.facts db;
      i_level = 0;
      i_saturated = false;
      i_first_pass = true;
      i_fired = 0;
      i_dismissed = 0;
      i_fpl = [];
    }
  in
  let r = exec ~policy ~budget ~span ~on_pass ~on_fire init rules in
  Obs.Span.exit span;
  r

(** [continue ... rules ~index ~level_of ~level delta] — run the delta
    fixpoint over an {e existing} store: passes enumerate only triggers
    whose body touches [delta] (then the facts those produce, and so on)
    until saturation. The trigger-key table starts empty — sound whenever
    every previously fired trigger has no body fact in the transitive
    delta, which is the incremental-maintenance invariant (a fired
    trigger touching the delta was either never fired or was invalidated
    by the over-delete phase). Bodiless rules are never (re-)considered:
    their single trigger fired on the original first pass. *)
let continue ?(policy = Oblivious) ?(budget = Obs.Budget.unlimited) ?obs
    ?on_pass ?on_fire rules ~index ~level_of ~level delta =
  let span = make_span obs in
  let init =
    {
      i_idx = index;
      i_level_of = level_of;
      i_delta = delta;
      i_level = level;
      i_saturated = false;
      i_first_pass = false;
      i_fired = 0;
      i_dismissed = 0;
      i_fpl = [];
    }
  in
  let r = exec ~policy ~budget ~span ~on_pass ~on_fire init rules in
  Obs.Span.exit span;
  r

let resume ?(policy = Oblivious) ?(budget = Obs.Budget.unlimited) ?obs
    ?on_pass ?on_fire rules (s : snapshot) =
  let span = make_span obs in
  let idx = Index.create () in
  List.iter (fun (f, _) -> ignore (Index.insert f idx)) s.snap_facts;
  (* Re-seed the counters to the checkpointed totals, cancelling the
     increments of the rebuild itself, so a resumed run reports the same
     counter values as an uninterrupted one. *)
  let m = Index.metrics idx in
  let names =
    List.sort_uniq String.compare
      (List.map fst s.snap_counters @ List.map fst (Obs.Metrics.counters m))
  in
  List.iter
    (fun name ->
      let saved =
        match List.assoc_opt name s.snap_counters with Some v -> v | None -> 0
      in
      let c = Obs.Metrics.counter m name in
      Obs.Metrics.add c (saved - Obs.Metrics.value c))
    names;
  let level_of : (Fact.t, int) Hashtbl.t =
    Hashtbl.create (List.length s.snap_facts)
  in
  List.iter (fun (f, l) -> Hashtbl.replace level_of f l) s.snap_facts;
  (* The semi-naive delta at a clean boundary is exactly the last level. *)
  let delta =
    List.filter_map
      (fun (f, l) -> if l = s.snap_level then Some f else None)
      s.snap_facts
  in
  let fpl =
    if s.snap_level = 0 then []
    else begin
      let counts = Array.make (s.snap_level + 1) 0 in
      List.iter
        (fun (_, l) ->
          if l >= 1 && l <= s.snap_level then counts.(l) <- counts.(l) + 1)
        s.snap_facts;
      (* internal representation is reversed (newest level first) *)
      List.init s.snap_level (fun i -> counts.(s.snap_level - i))
    end
  in
  let init =
    {
      i_idx = idx;
      i_level_of = level_of;
      i_delta = delta;
      i_level = s.snap_level;
      i_saturated = s.snap_saturated;
      i_first_pass = s.snap_level = 0;
      i_fired = s.snap_triggers_fired;
      i_dismissed = s.snap_triggers_dismissed;
      i_fpl = fpl;
    }
  in
  let r = exec ~policy ~budget ~span ~on_pass ~on_fire init rules in
  Obs.Span.exit span;
  r
