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
  snap_policy : policy;
  snap_level : int;
  snap_saturated : bool;
  snap_null_count : int;
  snap_triggers_fired : int;
  snap_triggers_dismissed : int;
  snap_facts : (Fact.t * int) list;
  snap_counters : (string * int) list;
}

type result = {
  index : Index.t;
  saturated : bool;
  max_level : int;
  outcome : Obs.Budget.outcome;
  triggers_fired : int;
  triggers_dismissed : int;
  facts_per_level : int list;
  span : Obs.Span.t;
}

(* The firing view: one record per run, overwritten before each
   callback. [fr_cells] is the rule's binding environment (its first
   [fr_ncells] slots hold the trigger's body binding), [fr_body] and
   [fr_outs] the plan's handle scratch. *)
type firing = {
  mutable fr_rule : int;
  mutable fr_ncells : int;
  mutable fr_cells : int array;
  mutable fr_body : int array;
  mutable fr_outs : int array;
}

let fire_rule fr = fr.fr_rule
let fire_cells fr = fr.fr_ncells
let fire_cell fr i =
  if i < fr.fr_ncells then fr.fr_cells.(i) else invalid_arg "Saturate.fire_cell"
let fire_bodies fr = Array.length fr.fr_body
let fire_body fr j = fr.fr_body.(j)
let fire_outs fr = Array.length fr.fr_outs
let fire_out fr j = fr.fr_outs.(j)

(* A rule's slot layout: body variables take slots [0 .. nbody-1] in
   [VarSet.elements] order, existentials the slots after them. A
   trigger's key is [| rule; slot 0; …; slot nbody-1 |] — the body
   binding itself; a collected trigger is queued as the same ints, and
   the firing phase reads them back into [benv]. *)
type layout = {
  l_rule : rule;
  l_nbody : int;
  l_nexist : int;
  l_slot : string -> int;
  l_exist : string -> bool;
  l_benv : int array;  (* binding environment, all -1 between uses *)
  l_key : int array;  (* scratch trigger key for the dedup table *)
}

let layout i r =
  let vars_of atoms =
    List.fold_left (fun acc a -> VarSet.union (Atom.vars a) acc) VarSet.empty atoms
  in
  let bv = vars_of r.body in
  let ev = VarSet.diff (vars_of r.head) bv in
  let slots = Hashtbl.create 8 in
  List.iteri
    (fun s x -> Hashtbl.replace slots x s)
    (VarSet.elements bv @ VarSet.elements ev);
  let nbody = VarSet.cardinal bv and nexist = VarSet.cardinal ev in
  {
    l_rule = r;
    l_nbody = nbody;
    l_nexist = nexist;
    l_slot = Hashtbl.find slots;
    l_exist = (fun x -> VarSet.mem x ev);
    l_benv = Array.make (max 1 (nbody + nexist)) (-1);
    l_key = Array.make (nbody + 1) i;
  }

(* A rule compiled against the store's symbol table. Symbols are
   interned at their first insert, so a pattern compiled before a symbol
   exists holds an unknown id; [refresh] re-resolves those at the start
   of every pass (the collection phase interns nothing). *)
type plan = {
  p_layout : layout;
  p_body : Index.catom array;  (* body order *)
  p_pivots : (Index.catom * Index.catom array) array;
      (* per body position: the pivot and the other atoms in body order;
         a predicate repeated in the body is pivoted once per occurrence
         (the per-pass key set deduplicates the bindings) *)
  p_heads : Index.catom array;
  p_hbody : int array;  (* the fired trigger's body handles, for [on_fire] *)
  p_houts : int array;  (* its head handles *)
}

let plan idx i r =
  let l = layout i r in
  let body =
    Array.of_list (List.map (Index.compile_atom idx ~slot:l.l_slot) l.l_rule.body)
  in
  let n = Array.length body in
  {
    p_layout = l;
    p_body = body;
    p_pivots =
      Array.init n (fun j ->
          (body.(j), Array.init (n - 1) (fun k -> body.(if k < j then k else k + 1))));
    p_heads =
      Array.of_list
        (List.map
           (Index.compile_head idx ~slot:l.l_slot ~fresh:l.l_exist)
           l.l_rule.head);
    p_hbody = Array.make n (-1);
    p_houts = Array.make (List.length l.l_rule.head) (-1);
  }

let refresh idx p =
  for j = 0 to Array.length p.p_body - 1 do
    Index.resolve idx p.p_body.(j)
  done;
  for j = 0 to Array.length p.p_heads - 1 do
    Index.resolve idx p.p_heads.(j)
  done

(* Rules compiled against one store. A rule is compiled when a pass's
   delta first holds one of its body predicates, and the plan is kept for
   every later pass and every later [continue] over the same store: a
   maintenance step on perfbench's mutate workload touches 4.5 of the 10
   rules, and compiling even those anew on each step was a fifth of the
   step's allocation.

   The program also owns the scratch of a pass, emptied and refilled by
   every pass of every run over it, so a pass allocates none of it. *)
type program = {
  g_idx : Index.t;
  g_rules : rule array;
  g_plans : plan option array;
  g_pids : int array array;
      (* per rule, its body predicates' ids; [-1] while a predicate is
         unknown to the store, resolved again at each pass until known *)
  g_counters : Joiner.counters;
  mutable g_lo : int array;
  mutable g_hi : int array;
      (* per pid, the slots [g_lo, g_hi) of [g_delta] holding the pass's
         delta facts of that predicate, in delta order *)
  g_touched : Vec.t;  (* the pids whose slots are not empty *)
  g_seen : unit Index.Keytbl.t;
      (* the trigger keys of rules with two or more body atoms met in
         the pass; see [exec] *)
  g_pending : Vec.t;
      (* the active triggers collected in the pass, in collection order,
         flat: each is its rule's index, then the handles of its body
         facts in body order, which spell its binding *)
  mutable g_delta : Vec.t;
      (* the handles of the pass's delta, grouped by predicate once the
         pass starts *)
  mutable g_next : Vec.t;
      (* spare: the grouping's buffer, then the facts the pass adds,
         which are the next delta *)
  g_view : firing;
}

let program rules idx =
  let rules = Array.of_list rules in
  let st = Index.symtab idx in
  {
    g_idx = idx;
    g_rules = rules;
    g_plans = Array.make (Array.length rules) None;
    g_pids =
      Array.map
        (fun r ->
          Array.of_list
            (List.map (fun a -> Symtab.find_pred_int st (Atom.pred a)) r.body))
        rules;
    g_counters = Joiner.counters idx;
    g_lo = [||];
    g_hi = [||];
    g_touched = Vec.create ();
    (* a table sized to a large database raised the server's peak RSS *)
    g_seen = Index.Keytbl.create 256;
    g_pending = Vec.create ();
    g_delta = Vec.create ();
    g_next = Vec.create ();
    g_view =
      { fr_rule = 0; fr_ncells = 0; fr_cells = [||]; fr_body = [||]; fr_outs = [||] };
  }

(* The first and the last-plus-one slot of [g_delta] holding the pass's
   delta facts of predicate [pid]. *)
let group_lo prog pid = if pid >= 0 && pid < Array.length prog.g_lo then prog.g_lo.(pid) else 0
let group_hi prog pid = if pid >= 0 && pid < Array.length prog.g_hi then prog.g_hi.(pid) else 0

(* Group the delta by predicate, keeping delta order within each
   predicate: a counting sort into the spare vector, which then becomes
   the delta. The delta and its grouping take the same two vectors, so a
   pass holds no other copy of its delta. *)
let group_delta prog =
  let idx = prog.g_idx and touched = prog.g_touched in
  for k = 0 to Vec.length touched - 1 do
    let pid = Vec.get touched k in
    prog.g_lo.(pid) <- 0;
    prog.g_hi.(pid) <- 0
  done;
  Vec.clear touched;
  let delta = prog.g_delta and sorted = prog.g_next in
  let n = Vec.length delta in
  (* count each predicate's facts in [g_hi] *)
  for k = 0 to n - 1 do
    let pid = Index.handle_pid idx (Vec.get delta k) in
    if pid >= Array.length prog.g_hi then begin
      let grow a = Array.append a (Array.make (max 16 (pid + 1)) 0) in
      prog.g_lo <- grow prog.g_lo;
      prog.g_hi <- grow prog.g_hi
    end;
    if prog.g_hi.(pid) = 0 then Vec.push touched pid;
    prog.g_hi.(pid) <- prog.g_hi.(pid) + 1
  done;
  (* give each predicate its slots, in order of first appearance; [g_hi]
     becomes the fill cursor *)
  let next = ref 0 in
  for k = 0 to Vec.length touched - 1 do
    let pid = Vec.get touched k in
    let count = prog.g_hi.(pid) in
    prog.g_lo.(pid) <- !next;
    prog.g_hi.(pid) <- !next;
    next := !next + count
  done;
  Vec.clear sorted;
  for _ = 1 to n do
    Vec.push sorted 0
  done;
  for k = 0 to n - 1 do
    let h = Vec.get delta k in
    let pid = Index.handle_pid idx h in
    Vec.set sorted prog.g_hi.(pid) h;
    prog.g_hi.(pid) <- prog.g_hi.(pid) + 1
  done;
  prog.g_delta <- sorted;
  prog.g_next <- delta

(* Does a body predicate of rule [i] hold a fact of the pass's delta? *)
let touches prog i =
  let pids = prog.g_pids.(i) in
  let rec go j =
    j < Array.length pids
    &&
    let pid =
      if pids.(j) >= 0 then pids.(j)
      else begin
        let a = List.nth prog.g_rules.(i).body j in
        pids.(j) <- Symtab.find_pred_int (Index.symtab prog.g_idx) (Atom.pred a);
        pids.(j)
      end
    in
    group_hi prog pid > group_lo prog pid || go (j + 1)
  in
  go 0

(* The resumable state threaded into the driver: either a fresh run over a
   database or the reconstruction of a checkpointed boundary. The first
   delta is in the program's [g_delta]. *)
type init = {
  i_level : int;
  i_saturated : bool;
  i_first_pass : bool;
  i_fired : int;
  i_dismissed : int;
  i_fpl : int list;  (* reversed: newest level first *)
}

(* Fill the program's delta with the handles [f] pushes, reversed: a
   run pivots its first delta in the reverse of the order it is gathered
   in, which fixes the order of its triggers, hence of its nulls. *)
let set_delta prog f =
  let v = prog.g_delta in
  Vec.clear v;
  f (Vec.push v);
  let n = Vec.length v in
  for i = 0 to (n / 2) - 1 do
    let h = Vec.get v i in
    Vec.set v i (Vec.get v (n - 1 - i));
    Vec.set v (n - 1 - i) h
  done

let exec ?nulls ~policy ~budget ~span ~spans ~on_pass ~on_fire init prog =
  let idx = prog.g_idx and rules = prog.g_rules and plans = prog.g_plans in
  let plan_of i =
    match plans.(i) with
    | Some p -> p
    | None ->
        let p = plan idx i rules.(i) in
        plans.(i) <- Some p;
        p
  in
  (* [seen] holds the trigger keys of rules with two or more body atoms
     enumerated in the current pass: such a trigger is met once per pivot
     whose atom maps into the delta. Nothing needs remembering across
     passes: a fact enters the delta at most once in a run, and a trigger
     is met only in the pass whose delta holds one of its body facts,
     since all of them were stored when it was first met. A one-atom
     body has one pivot, so it meets each delta fact, hence each trigger,
     once. *)
  let seen = prog.g_seen and pending = prog.g_pending and view = prog.g_view in
  let triggers_fired = ref init.i_fired
  and triggers_dismissed = ref init.i_dismissed in
  let facts_per_level = ref init.i_fpl in
  let first_pass = ref init.i_first_pass in
  let saturated = ref init.i_saturated in
  let level = ref init.i_level in
  let level_dismissed = ref 0 in
  let violation = ref None in
  let overflow () = !violation <> None in
  let take_snapshot () =
    {
      snap_policy = policy;
      snap_level = !level;
      snap_saturated = !saturated;
      snap_null_count = null_count ();
      snap_triggers_fired = !triggers_fired;
      snap_triggers_dismissed = !triggers_dismissed;
      snap_facts = Index.ordered_facts idx;
      snap_counters = Obs.Metrics.counters (Index.metrics idx);
    }
  in
  (* the rule whose triggers the collection phase is enumerating *)
  let rule = ref 0 in
  let consider () =
    let i = !rule in
    let p = plan_of i in
    let l = p.p_layout in
    let sk = l.l_key in
    Array.blit l.l_benv 0 sk 1 l.l_nbody;
    let dedup = Array.length p.p_body >= 2 in
    if not (dedup && Index.Keytbl.mem seen sk) then begin
      let active =
        match policy with
        | Oblivious -> true
        | Restricted ->
            let heads = p.p_heads in
            Obs.Probe.hit "engine.join";
            not
              (Joiner.exists_compiled idx ~counters:prog.g_counters heads
                 ~benv:l.l_benv 0 (Array.length heads))
      in
      if dedup then Index.Keytbl.replace seen (Array.copy sk) ();
      if active then begin
        Vec.push pending i;
        (* the search matched every body atom to a stored fact *)
        for j = 0 to Array.length p.p_body - 1 do
          Vec.push pending (Index.catom_matched p.p_body.(j))
        done
      end
      else begin
        incr triggers_dismissed;
        incr level_dismissed
      end
    end
  in
  while (not !saturated) && not (overflow ()) do
    Obs.Probe.hit "engine.pass";
    match Obs.Budget.check budget ~facts:(Index.size idx) ~level:(!level + 1) with
    | Some v -> violation := Some v
    | None ->
        let lspan = if spans then Some (Obs.Span.enter span "level") else None in
        let pass_no = !level + 1 in
        let level_fired = ref 0 in
        level_dismissed := 0;
        for i = 0 to Array.length plans - 1 do
          match plans.(i) with Some p -> refresh idx p | None -> ()
        done;
        group_delta prog;
        Index.Keytbl.reset seen;
        Vec.clear pending;
        for i = 0 to Array.length rules - 1 do
          rule := i;
          if rules.(i).body = [] then begin
            (* bodiless rules have a single (empty) trigger; it exists
               from the start, so only the first pass needs to consider
               it *)
            if !first_pass then consider ()
          end
          else if touches prog i then begin
            let p = plan_of i in
            let benv = p.p_layout.l_benv in
            for j = 0 to Array.length p.p_pivots - 1 do
              let pivot, rest = p.p_pivots.(j) in
              let pid = Index.catom_pid pivot in
              let lo = group_lo prog pid and hi = group_hi prog pid in
              if hi > lo then
                Joiner.fold_delta idx ~counters:prog.g_counters ~pivot rest ~benv
                  prog.g_delta ~lo ~hi consider
            done
          end
        done;
        first_pass := false;
        if Vec.length pending = 0 then saturated := true
        else begin
          incr level;
          let next = prog.g_next in
          Vec.clear next;
          let pos = ref 0 in
          while !pos < Vec.length pending && not (overflow ()) do
            incr triggers_fired;
            incr level_fired;
            let i = Vec.get pending !pos in
            let p = plan_of i in
            let l = p.p_layout in
            let benv = l.l_benv in
            let hbody = p.p_hbody in
            let body_level = ref 0 in
            for j = 0 to Array.length hbody - 1 do
              let h = Vec.get pending (!pos + 1 + j) in
              hbody.(j) <- h;
              Index.bind_handle idx p.p_body.(j) ~benv h;
              body_level := max !body_level (Index.handle_level idx h)
            done;
            pos := !pos + 1 + Array.length hbody;
            let head_level = !body_level + 1 in
            (match nulls with
            | Some choose when l.l_nexist > 0 ->
                view.fr_rule <- i;
                view.fr_ncells <- l.l_nbody;
                view.fr_cells <- benv;
                let payloads = choose view ~level:head_level in
                Array.blit payloads 0 benv l.l_nbody l.l_nexist
            | _ ->
                for z = 0 to l.l_nexist - 1 do
                  benv.(l.l_nbody + z) <-
                    (match fresh_null () with Null n -> n | Named _ -> assert false)
                done);
            for j = 0 to Array.length p.p_heads - 1 do
              (* the new fact's handle, or [lnot] the stored one's *)
              let landed = Index.insert_key idx ~level:head_level p.p_heads.(j) ~benv in
              if landed >= 0 then Vec.push next landed;
              p.p_houts.(j) <- (if landed >= 0 then landed else lnot landed)
            done;
            (match on_fire with
            | None -> ()
            | Some cb ->
                view.fr_rule <- i;
                view.fr_ncells <- l.l_nbody;
                view.fr_cells <- benv;
                view.fr_body <- hbody;
                view.fr_outs <- p.p_houts;
                cb view);
            Array.fill benv 0 (Array.length benv) (-1);
            (* the budget is re-checked trigger-atomically: the
               overflowing trigger's whole head lands (matching the
               naive loop), remaining triggers are skipped *)
            match Obs.Budget.check budget ~facts:(Index.size idx) ~level:!level with
            | Some v -> violation := Some v
            | None -> ()
          done;
          facts_per_level := Vec.length next :: !facts_per_level;
          prog.g_next <- prog.g_delta;
          prog.g_delta <- next
        end;
        (match lspan with
        | None -> ()
        | Some lspan ->
            Obs.Span.set lspan "level" (Obs.Json.Int pass_no);
            Obs.Span.set lspan "triggers_fired" (Obs.Json.Int !level_fired);
            Obs.Span.set lspan "triggers_dismissed" (Obs.Json.Int !level_dismissed);
            Obs.Span.set lspan "new_facts"
              (Obs.Json.Int
                 (match !facts_per_level with
                 | n :: _ when not !saturated -> n
                 | _ -> 0));
            Obs.Span.exit lspan);
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
    ?on_fire ?nulls rules idx =
  let span = make_span obs in
  let prog = program rules idx in
  (* the first delta: every stored fact, in reverse storage order *)
  set_delta prog (fun push -> Index.iter_handles push idx);
  let init =
    {
      i_level = 0;
      i_saturated = false;
      i_first_pass = true;
      i_fired = 0;
      i_dismissed = 0;
      i_fpl = [];
    }
  in
  let r = exec ?nulls ~policy ~budget ~span ~spans:true ~on_pass ~on_fire init prog in
  Obs.Span.exit span;
  r

(* The [span] of a {!continue} without [obs]: never entered, exited or
   annotated, so every such call shares it instead of opening a root
   span nobody reads. *)
let unread = Obs.Span.root ~clock:(fun () -> 0.) "saturate"

(** [continue ... prog ~level delta] — run the delta
    fixpoint over an {e existing} store: passes enumerate only triggers
    whose body touches [delta], the handles of distinct facts already
    stored (then the facts those produce, and so on) until saturation.
    No trigger of an earlier run is remembered — sound whenever
    every previously fired trigger has no body fact in the transitive
    delta, which is the incremental-maintenance invariant (a fired
    trigger touching the delta was either never fired or was invalidated
    by the over-delete phase). Bodiless rules are never (re-)considered:
    their single trigger fired on the original first pass. The run
    opens its [saturate] span, and a pass its [level] span, only under
    [obs]: nothing reads them otherwise. *)
let continue ?(policy = Oblivious) ?(budget = Obs.Budget.unlimited) ?obs
    ?on_pass ?on_fire prog ~level delta =
  let span =
    match obs with Some parent -> Obs.Span.enter parent "saturate" | None -> unread
  in
  set_delta prog (fun push -> List.iter push delta);
  let init =
    {
      i_level = level;
      i_saturated = false;
      i_first_pass = false;
      i_fired = 0;
      i_dismissed = 0;
      i_fpl = [];
    }
  in
  let r =
    exec ~policy ~budget ~span ~spans:(obs <> None) ~on_pass ~on_fire init prog
  in
  if obs <> None then Obs.Span.exit span;
  r

let resume ?(budget = Obs.Budget.unlimited) ?obs ?on_pass ?on_fire rules
    (s : snapshot) =
  (* Pin the null supply to the boundary. The snapshot's facts only hold
     nulls ≤ [snap_null_count]; anything invented after the boundary (by
     the interrupted attempt, possibly in another process) was discarded
     with that attempt, so the ids may — and for cross-process alignment
     with the uninterrupted run, must — be re-issued. *)
  set_null_count s.snap_null_count;
  let span = make_span obs in
  let idx = Index.create () in
  List.iter (fun (f, level) -> ignore (Index.insert ~level f idx)) s.snap_facts;
  (* cancel the rebuild's own increments: a resumed run reports the same
     counter values as an uninterrupted one *)
  Obs.Metrics.restore (Index.metrics idx) s.snap_counters;
  let prog = program rules idx in
  (* The semi-naive delta at a clean boundary is exactly the last level,
     pivoted in the reverse of the snapshot's order. *)
  set_delta prog (fun push ->
      List.iter
        (fun (f, l) ->
          if l = s.snap_level then
            match Index.key idx f with Some k -> push (Index.handle idx k) | None -> ())
        s.snap_facts);
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
      i_level = s.snap_level;
      i_saturated = s.snap_saturated;
      i_first_pass = s.snap_level = 0;
      i_fired = s.snap_triggers_fired;
      i_dismissed = s.snap_triggers_dismissed;
      i_fpl = fpl;
    }
  in
  let r =
    exec ~policy:s.snap_policy ~budget ~span ~spans:true ~on_pass ~on_fire init prog
  in
  Obs.Span.exit span;
  r
