(** Incremental chase maintenance; see the interface for the contract.

    The ledger is three hash tables over one mutable [derivation] record
    per fired trigger: [derivs] maps a fact to the derivations producing
    it, [uses] maps a fact to the derivations consuming it, [fired] maps
    a trigger key to its (live) derivation. A derivation dies when any of
    its body facts is over-deleted; its key leaves [fired] at the same
    moment, so the trigger may legitimately refire during repair.
    Dead records are pruned lazily from the per-fact lists.

    Soundness of running {!Engine.Saturate.continue} with a fresh
    trigger-key table after every mutation: a trigger enumerated by the
    delta fixpoint has a body fact in the transitive delta; for an insert
    that fact never existed before (so the trigger never fired), and for
    a delete it was over-deleted first (so the trigger's old firing was
    invalidated and removed from [fired]). Either way the firing is not a
    duplicate. *)

open Relational

type key = int * Term.const option list

type derivation = {
  d_key : key;
  d_body : Fact.t list;  (* grounded body, deduplicated, sorted *)
  d_outs : Fact.t list;  (* grounded head, deduplicated, sorted *)
  mutable d_live : bool;
}

type op = Insert of Fact.t | Delete of Fact.t

type effect = {
  e_op : op;
  e_noop : bool;
  e_repaired : int;
  e_overdeleted : int;
  e_rederived : int;
  e_deleted : int;
}

type t = {
  prog : Engine.Saturate.program;  (* the rules, compiled against [idx] *)
  idx : Engine.Index.t;  (* the store, s-levels included *)
  base : (Fact.t, unit) Hashtbl.t;
  derivs : (Fact.t, derivation list ref) Hashtbl.t;
  uses : (Fact.t, derivation list ref) Hashtbl.t;
  fired : (key, derivation) Hashtbl.t;
  mutable level : int;  (* highest pass number handed to [continue] *)
  mutable sat : bool;
  mutable dirty : bool;  (* a mutation started changing state and died *)
  (* maintenance counters *)
  c_inserts : Obs.Metrics.counter;
  c_deletes : Obs.Metrics.counter;
  c_noops : Obs.Metrics.counter;
  c_repaired : Obs.Metrics.counter;
  c_overdeleted : Obs.Metrics.counter;
  c_rederived : Obs.Metrics.counter;
  c_deleted : Obs.Metrics.counter;
}

let saturated t = t.sat
let dirty t = t.dirty

let ensure_saturated t =
  if not t.sat then invalid_arg "Incr: store is not saturated"

(* A mutation that raised after its first state change leaves the store
   between consistent states; retrying on it is unsound. Callers must
   rebuild (e.g. {!of_checkpoint}) instead. *)
let ensure_clean t =
  if t.dirty then invalid_arg "Incr: store is dirty (interrupted mutation)"

(* ---- ledger primitives ------------------------------------------------ *)

let push tbl f d =
  match Hashtbl.find_opt tbl f with
  | Some r -> r := d :: !r
  | None -> Hashtbl.replace tbl f (ref [ d ])

(* Live derivations of [f] in [tbl], pruning dead records in passing. *)
let live tbl f =
  match Hashtbl.find_opt tbl f with
  | None -> []
  | Some r ->
      let l = List.filter (fun d -> d.d_live) !r in
      if l = [] then Hashtbl.remove tbl f else r := l;
      l

let record ~derivs ~uses ~fired (fir : Engine.Saturate.firing) =
  let body = List.sort_uniq Fact.compare fir.Engine.Saturate.fire_body in
  let outs =
    List.sort_uniq Fact.compare
      (List.map fst fir.Engine.Saturate.fire_outs)
  in
  let d =
    { d_key = fir.Engine.Saturate.fire_key; d_body = body; d_outs = outs;
      d_live = true }
  in
  Hashtbl.replace fired d.d_key d;
  List.iter (fun f -> push uses f d) body;
  List.iter (fun f -> push derivs f d) outs

let kill t d =
  d.d_live <- false;
  (match Hashtbl.find_opt t.fired d.d_key with
  | Some d' when d' == d -> Hashtbl.remove t.fired d.d_key
  | _ -> ())

(* ---- construction ----------------------------------------------------- *)

(* A store over [idx], with the ledger tables that describe its facts.
   The maintenance counters register on the index's metrics registry, so
   they travel with the usual report plumbing. *)
let make sigma idx ~base ~derivs ~uses ~fired ~level ~sat =
  let m = Engine.Index.metrics idx in
  let c name = Obs.Metrics.counter m ("incr." ^ name) in
  {
    prog =
      Engine.Saturate.program
        (sigma : Tgds.Tgd.t list :> Engine.Saturate.rule list)
        idx;
    idx;
    base;
    derivs;
    uses;
    fired;
    level;
    sat;
    dirty = false;
    c_inserts = c "inserts";
    c_deletes = c "deletes";
    c_noops = c "noops";
    c_repaired = c "repaired";
    c_overdeleted = c "overdeleted";
    c_rederived = c "rederived";
    c_deleted = c "deleted";
  }

let create ?engine ?max_level ?obs sigma db =
  let derivs = Hashtbl.create 1024
  and uses = Hashtbl.create 1024
  and fired = Hashtbl.create 1024 in
  let r =
    Tgds.Chase.run ?engine ~policy:Tgds.Chase.Oblivious ?max_level ?obs
      ~on_fire:(record ~derivs ~uses ~fired)
      sigma db
  in
  let base = Hashtbl.create (Instance.size db) in
  Instance.iter (fun f -> Hashtbl.replace base f ()) db;
  make sigma (Tgds.Chase.index r) ~base ~derivs ~uses ~fired
    ~level:(Tgds.Chase.max_level r) ~sat:(Tgds.Chase.saturated r)

(* ---- the delta fixpoint over the live store --------------------------- *)

(* Run [Saturate.continue] from [delta] (already inserted into the index
   with levels set), recording new derivations. Returns the number of
   facts the fixpoint added. *)
let propagate ?obs t delta =
  if delta = [] then 0
  else begin
    let r =
      Engine.Saturate.continue ~policy:Engine.Saturate.Oblivious ?obs
        ~on_fire:(record ~derivs:t.derivs ~uses:t.uses ~fired:t.fired)
        t.prog ~level:t.level delta
    in
    t.level <- r.Engine.Saturate.max_level;
    List.fold_left ( + ) 0 r.Engine.Saturate.facts_per_level
  end

(* ---- mutations -------------------------------------------------------- *)

let fact_attr f = Obs.Json.String (Fmt.str "%a" Fact.pp f)

let insert ?obs t f =
  ensure_saturated t;
  ensure_clean t;
  (* probe before the first state change: an injected fault here leaves
     the store clean, so retrying the mutation is sound *)
  Obs.Probe.hit "incr.insert";
  let span = Option.map (fun p -> Obs.Span.enter p "insert") obs in
  Option.iter (fun s -> Obs.Span.set s "fact" (fact_attr f)) span;
  let eff =
    if Hashtbl.mem t.base f then begin
      Obs.Metrics.incr t.c_noops;
      { e_op = Insert f; e_noop = true; e_repaired = 0; e_overdeleted = 0;
        e_rederived = 0; e_deleted = 0 }
    end
    else begin
      Obs.Metrics.incr t.c_inserts;
      t.dirty <- true;
      Hashtbl.replace t.base f ();
      let repaired =
        if Engine.Index.mem f t.idx then 0
          (* already derivable: it gains base membership, nothing fires —
             every trigger over the existing facts has fired already *)
        else begin
          ignore (Engine.Index.insert f t.idx);
          1 + propagate ?obs:span t [ f ]
        end
      in
      Obs.Metrics.add t.c_repaired repaired;
      t.dirty <- false;
      { e_op = Insert f; e_noop = false; e_repaired = repaired;
        e_overdeleted = 0; e_rederived = 0; e_deleted = 0 }
    end
  in
  Option.iter
    (fun s ->
      Obs.Span.set s "repaired" (Obs.Json.Int eff.e_repaired);
      Obs.Span.exit s)
    span;
  eff

(* Canonical-ish level of a re-derived fact: base facts are level 0,
   others sit one above their cheapest surviving derivation. Live
   derivations never lost a body fact, so every body level is present. *)
let relevel t f =
  if Hashtbl.mem t.base f then 0
  else
    List.fold_left
      (fun acc d ->
        let bl =
          List.fold_left
            (fun m g ->
              max m (Option.value ~default:0 (Engine.Index.level t.idx g)))
            0 d.d_body
        in
        min acc (bl + 1))
      max_int (live t.derivs f)

let delete ?obs t f =
  ensure_saturated t;
  ensure_clean t;
  Obs.Probe.hit "incr.delete";
  let span = Option.map (fun p -> Obs.Span.enter p "delete") obs in
  Option.iter (fun s -> Obs.Span.set s "fact" (fact_attr f)) span;
  let eff =
    if not (Hashtbl.mem t.base f) then begin
      Obs.Metrics.incr t.c_noops;
      { e_op = Delete f; e_noop = true; e_repaired = 0; e_overdeleted = 0;
        e_rederived = 0; e_deleted = 0 }
    end
    else begin
      Obs.Metrics.incr t.c_deletes;
      t.dirty <- true;
      Hashtbl.remove t.base f;
      (* Phase 1: over-delete. Retract [f] and, transitively, every fact
         produced by a derivation that consumed a retracted fact. The
         retracted set is order-independent (a closure), so the phases
         below are deterministic after sorting. *)
      let over = ref [] in
      let stack = ref [ f ] in
      while !stack <> [] do
        let g = List.hd !stack in
        stack := List.tl !stack;
        if Engine.Index.remove g t.idx then begin
          over := g :: !over;
          List.iter
            (fun d ->
              kill t d;
              List.iter (fun o -> stack := o :: !stack) d.d_outs)
            (live t.uses g);
          Hashtbl.remove t.uses g
        end
      done;
      let over = List.sort Fact.compare !over in
      let overdeleted = List.length over in
      (* Phase 2: re-derive. A retracted fact comes straight back when it
         is still base, or still carries a live derivation (one whose
         body never touched the retracted set). *)
      let red =
        List.filter
          (fun g -> Hashtbl.mem t.base g || live t.derivs g <> [])
          over
      in
      List.iter
        (fun g ->
          ignore (Engine.Index.insert g t.idx);
          Engine.Index.set_level t.idx g (relevel t g))
        red;
      (* Ledger entries of facts that stayed out hold only dead records. *)
      List.iter
        (fun g ->
          if not (Engine.Index.mem g t.idx) then begin
            Hashtbl.remove t.derivs g;
            Hashtbl.remove t.uses g
          end)
        over;
      (* Phase 3: propagate. The re-inserted facts are the delta; the
         invalidated triggers whose bodies survived refire here (and may
         resurrect more of the retracted set, with fresh nulls where the
         original derivation passed through an existential). *)
      let repaired = propagate ?obs:span t red in
      let deleted =
        List.length (List.filter (fun g -> not (Engine.Index.mem g t.idx)) over)
      in
      Obs.Metrics.add t.c_overdeleted overdeleted;
      Obs.Metrics.add t.c_rederived (List.length red);
      Obs.Metrics.add t.c_repaired repaired;
      Obs.Metrics.add t.c_deleted deleted;
      t.dirty <- false;
      { e_op = Delete f; e_noop = false; e_repaired = repaired;
        e_overdeleted = overdeleted; e_rederived = List.length red;
        e_deleted = deleted }
    end
  in
  Option.iter
    (fun s ->
      Obs.Span.set s "overdeleted" (Obs.Json.Int eff.e_overdeleted);
      Obs.Span.set s "rederived" (Obs.Json.Int eff.e_rederived);
      Obs.Span.set s "repaired" (Obs.Json.Int eff.e_repaired);
      Obs.Span.set s "deleted" (Obs.Json.Int eff.e_deleted);
      Obs.Span.exit s)
    span;
  eff

let apply ?obs t = function
  | Insert f -> insert ?obs t f
  | Delete f -> delete ?obs t f

(* ---- views ------------------------------------------------------------ *)

let instance t = Engine.Index.to_instance t.idx
let index t = t.idx
let size t = Engine.Index.size t.idx
let base_size t = Hashtbl.length t.base
let base t = Hashtbl.fold (fun f () acc -> Instance.add_fact f acc) t.base Instance.empty
let support_count t f = List.length (live t.derivs f)
let metrics t = Engine.Index.metrics t.idx

(* ---- checkpointing ---------------------------------------------------- *)

(* Canonical s-levels: minimum derivation depth over the live ledger,
   base facts at 0. This equals the level the level-wise chase assigns —
   the oblivious chase fires every trigger at the earliest pass its body
   is complete, so a fact's s-level is [min] over its producing triggers
   of [1 + max body level]. Monotone decreasing fixpoint; terminates
   because levels only shrink. *)
let canonical_levels t =
  let lev = Hashtbl.create (size t) in
  Hashtbl.iter (fun f () -> Hashtbl.replace lev f 0) t.base;
  let ds = Hashtbl.fold (fun _ d acc -> d :: acc) t.fired [] in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun d ->
        let bl =
          List.fold_left
            (fun acc g ->
              match (acc, Hashtbl.find_opt lev g) with
              | Some m, Some l -> Some (max m l)
              | _ -> None)
            (Some 0) d.d_body
        in
        match bl with
        | None -> () (* some body level still unknown this round *)
        | Some m ->
            List.iter
              (fun o ->
                match Hashtbl.find_opt lev o with
                | Some cur when cur <= m + 1 -> ()
                | _ ->
                    Hashtbl.replace lev o (m + 1);
                    changed := true)
              d.d_outs)
      ds
  done;
  lev

let checkpoint t : Engine.Saturate.snapshot =
  ensure_saturated t;
  let lev = canonical_levels t in
  let snap_facts =
    List.map
      (fun (f, stored) ->
        (f, match Hashtbl.find_opt lev f with Some l -> l | None -> stored))
      (Engine.Index.ordered_facts t.idx)
  in
  let snap_level = List.fold_left (fun acc (_, l) -> max acc l) 0 snap_facts in
  {
    Engine.Saturate.snap_policy = Oblivious;
    snap_level;
    snap_saturated = true;
    snap_null_count = Term.null_count ();
    snap_triggers_fired = Hashtbl.length t.fired;
    snap_triggers_dismissed = 0;
    snap_facts;
    snap_counters = Obs.Metrics.counters (metrics t);
  }

let of_checkpoint ?obs sigma (s : Engine.Saturate.snapshot) =
  let db =
    List.fold_left
      (fun acc (f, l) -> if l = 0 then Instance.add_fact f acc else acc)
      Instance.empty s.snap_facts
  in
  create ?obs sigma db

(* ---- exact images ----------------------------------------------------- *)

type image = {
  im_facts : (Fact.t * int) list;
  im_base : Fact.t list;
  im_ledger : ((int * Term.const option list) * Fact.t list * Fact.t list) list;
  im_syms : Term.const list;
  im_preds : string list;
  im_level : int;
  im_null_count : int;
  im_counters : (string * int) list;
}

(* Exactness argument: the only store state observable through the
   mutation/checkpoint API is (a) the facts and their index iteration
   order (candidate order during joins — determines firing order and
   hence fresh-null assignment of future propagation), (b) the s-levels,
   (c) the base set, (d) the live ledger (support counts, over-delete
   cascades), (e) [level], the global null counter and the metrics.
   [ordered_facts] captures (a) only together with the symbol table's
   interning order: facts are stored grouped by predicate id, so a
   predicate interned early whose facts were all later deleted still
   holds its low pid, and a rebuild that re-interned symbols from the
   surviving facts alone would assign different ids and a different
   storage order. [im_syms]/[im_preds] record the full id-order
   enumeration of both spaces; [of_image] re-interns them first, after
   which re-inserting [im_facts] in order reproduces (a) exactly (row
   handles and free-list state differ but are not observable). Every
   live derivation sits in [fired] (a killed record leaves [fired] at
   death), so folding [fired] captures (d) entirely.
   Ledger list order inside [derivs]/[uses] is not observable: every
   reader either folds associatively (relevel, support_count) or
   computes an order-independent closure (over-delete). *)
let image t =
  ensure_saturated t;
  ensure_clean t;
  let facts = Engine.Index.ordered_facts t.idx in
  let base =
    List.sort Fact.compare (Hashtbl.fold (fun f () acc -> f :: acc) t.base [])
  in
  let ledger =
    List.sort
      (fun (k1, _, _) (k2, _, _) -> compare k1 k2)
      (Hashtbl.fold (fun k d acc -> (k, d.d_body, d.d_outs) :: acc) t.fired [])
  in
  let st = Engine.Index.symtab t.idx in
  let syms = List.init (Engine.Symtab.size st) (Engine.Symtab.extern st) in
  let preds =
    List.init (Engine.Symtab.pred_count st) (Engine.Symtab.extern_pred st)
  in
  {
    im_facts = facts;
    im_base = base;
    im_ledger = ledger;
    im_syms = syms;
    im_preds = preds;
    im_level = t.level;
    im_null_count = Term.null_count ();
    im_counters = Obs.Metrics.counters (metrics t);
  }

let of_image sigma (im : image) =
  let idx = Engine.Index.create () in
  let st = Engine.Index.symtab idx in
  List.iter (fun c -> ignore (Engine.Symtab.intern st c)) im.im_syms;
  List.iter (fun p -> ignore (Engine.Symtab.intern_pred st p)) im.im_preds;
  List.iter (fun (f, level) -> ignore (Engine.Index.insert ~level f idx)) im.im_facts;
  let base = Hashtbl.create (max 16 (List.length im.im_base)) in
  List.iter (fun f -> Hashtbl.replace base f ()) im.im_base;
  let derivs = Hashtbl.create 1024
  and uses = Hashtbl.create 1024
  and fired = Hashtbl.create 1024 in
  List.iter
    (fun (k, body, outs) ->
      let d = { d_key = k; d_body = body; d_outs = outs; d_live = true } in
      Hashtbl.replace fired k d;
      List.iter (fun f -> push uses f d) body;
      List.iter (fun f -> push derivs f d) outs)
    im.im_ledger;
  Term.set_null_count im.im_null_count;
  (* cancel the rebuild's own increments (the inserts above bumped
     [index.inserts] etc.) *)
  Obs.Metrics.restore (Engine.Index.metrics idx) im.im_counters;
  make sigma idx ~base ~derivs ~uses ~fired ~level:im.im_level ~sat:true

let report ?(name = "incr") ?span t =
  let rep = Obs.Report.create ~metrics:(metrics t) ?span name in
  Obs.Report.add_field rep "saturated" (Obs.Json.Bool t.sat);
  Obs.Report.add_field rep "facts" (Obs.Json.Int (size t));
  Obs.Report.add_field rep "base_facts" (Obs.Json.Int (base_size t));
  rep
