(** Incremental chase maintenance; see the interface for the contract.

    The ledger ({!Ledger}) is a columnar arena over the store's fact
    handles: one fixed-width int block per live derivation (binding
    cells, then an edge per body and head atom) and, per fact, the heads
    of its producing and consuming lists and its base flag. The chase's
    [on_fire] view is filed straight into it: recording a derivation
    boxes nothing. A derivation dies when any of its body facts is
    over-deleted; its block leaves every list at once and is reused, so
    the trigger may legitimately refire during repair.

    Handles are the store's own names for facts. A fact over-deleted and
    then re-inserted comes back in a new row, so its ledger state is
    detached at retraction and attached to the new handle (its live
    producers' out edges renamed) when it comes back.

    Keys are decoded to facts only where order or output needs them: the
    over-deleted set is sorted by [Fact.compare] (it fixes the re-insert
    order, hence storage order and the ids of future nulls), and
    {!checkpoint} and {!image} name facts.

    Soundness of running {!Engine.Saturate.continue}, which remembers no
    earlier firing, after every mutation: a trigger enumerated by the
    delta fixpoint has a body fact in the transitive delta; for an insert
    that fact never existed before (so the trigger never fired), and for
    a delete it was over-deleted first (so the trigger's old firing was
    invalidated and killed). Either way the firing is not a duplicate. *)

open Relational
module Index = Engine.Index

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
  idx : Index.t;  (* the store, s-levels included *)
  led : Ledger.t;  (* derivations and base flags, by fact handle *)
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

(* ---- construction ----------------------------------------------------- *)

(* The ledger block shape of each rule: its body variables (the binding
   cells), body atoms and head atoms. *)
let ledger (sigma : Tgds.Tgd.t list) =
  Ledger.create
    (Array.of_list
       (List.map
          (fun tgd ->
            {
              Ledger.cells = Term.VarSet.cardinal (Tgds.Tgd.body_vars tgd);
              body = List.length (Tgds.Tgd.body tgd);
              outs = List.length (Tgds.Tgd.head tgd);
            })
          sigma))

(* A store over [idx], with the ledger that describes its facts. The
   maintenance counters register on the index's metrics registry, so
   they travel with the usual report plumbing. *)
let make sigma idx ~led ~level ~sat =
  let m = Index.metrics idx in
  let c name = Obs.Metrics.counter m ("incr." ^ name) in
  {
    prog =
      Engine.Saturate.program
        (sigma : Tgds.Tgd.t list :> Engine.Saturate.rule list)
        idx;
    idx;
    led;
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

(* Every fact of the loaded store is a base fact; the flags are set by
   handle before the chase adds the derived ones. *)
let of_store ?max_level ?obs sigma idx =
  let led = ledger sigma in
  Index.iter_handles (fun h -> Ledger.set_base led h true) idx;
  let r =
    Tgds.Chase.run_store ~policy:Tgds.Chase.Oblivious ?max_level ?obs
      ~on_fire:(Ledger.file led) sigma idx
  in
  make sigma idx ~led ~level:(Tgds.Chase.max_level r)
    ~sat:(Tgds.Chase.saturated r)

let create ?engine:(_ : Tgds.Chase.engine option) ?max_level ?obs sigma db =
  of_store ?max_level ?obs sigma (Index.of_instance db)

(* ---- the delta fixpoint over the live store --------------------------- *)

(* Run [Saturate.continue] from the keys [delta] (already inserted into
   the index with levels set), recording new derivations. Returns the
   number of facts the fixpoint added. *)
let propagate ?obs t delta =
  if delta = [] then 0
  else begin
    let r =
      Engine.Saturate.continue ~policy:Engine.Saturate.Oblivious ?obs
        ~on_fire:(Ledger.file t.led) t.prog ~level:t.level delta
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
  (* a stored fact's symbols are interned already, so interning the key
     changes the symbol table only for a fact about to be inserted *)
  let k = Index.intern t.idx f in
  let h = Index.handle t.idx k in
  let eff =
    if h >= 0 && Ledger.is_base t.led h then begin
      Obs.Metrics.incr t.c_noops;
      { e_op = Insert f; e_noop = true; e_repaired = 0; e_overdeleted = 0;
        e_rederived = 0; e_deleted = 0 }
    end
    else begin
      Obs.Metrics.incr t.c_inserts;
      t.dirty <- true;
      let repaired =
        if h >= 0 then begin
          (* already derivable: it gains base membership, nothing fires —
             every trigger over the existing facts has fired already *)
          Ledger.set_base t.led h true;
          0
        end
        else begin
          ignore (Index.insert_interned k t.idx);
          Ledger.set_base t.led (Index.handle t.idx k) true;
          1 + propagate ?obs:span t [ k ]
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
let relevel t saved =
  if Ledger.saved_base saved then 0
  else
    Ledger.fold_saved_producers t.led saved
      (fun d acc ->
        let bl =
          Ledger.fold_body t.led d (fun g m -> max m (Index.handle_level t.idx g)) 0
        in
        min acc (bl + 1))
      max_int

let delete ?obs t f =
  ensure_saturated t;
  ensure_clean t;
  Obs.Probe.hit "incr.delete";
  let span = Option.map (fun p -> Obs.Span.enter p "delete") obs in
  Option.iter (fun s -> Obs.Span.set s "fact" (fact_attr f)) span;
  let h =
    match Index.key t.idx f with
    | Some k ->
        let h = Index.handle t.idx k in
        if h >= 0 && Ledger.is_base t.led h then h else -1
    | None -> -1
  in
  let eff =
    if h < 0 then begin
      Obs.Metrics.incr t.c_noops;
      { e_op = Delete f; e_noop = true; e_repaired = 0; e_overdeleted = 0;
        e_rederived = 0; e_deleted = 0 }
    end
    else begin
      Obs.Metrics.incr t.c_deletes;
      t.dirty <- true;
      Ledger.set_base t.led h false;
      (* Phase 1: over-delete. Retract [f] and, transitively, every fact
         produced by a derivation that consumed a retracted fact. The
         retracted set is order-independent (a closure), so the phases
         below are deterministic after sorting it by fact. No fact is
         inserted before the phase ends, so the retracted facts' rows,
         and with them their handles, stay unused until then. *)
      let over = ref [] in
      let stack = ref [ h ] in
      while !stack <> [] do
        let g = List.hd !stack in
        stack := List.tl !stack;
        if not (Ledger.retracted t.led g) then begin
          let k = Index.handle_key t.idx g in
          ignore (Index.remove_key k t.idx);
          over := (g, k) :: !over;
          Ledger.retract t.led g (fun o -> stack := o :: !stack)
        end
      done;
      let over =
        List.sort
          (fun (f1, _, _) (f2, _, _) -> Fact.compare f1 f2)
          (List.map
             (fun (g, k) -> (Index.decode_key t.idx k, k, Ledger.detach t.led g))
             !over)
      in
      let overdeleted = List.length over in
      (* Phase 2: re-derive. A retracted fact comes straight back when it
         is still base, or still carries a live derivation (one whose
         body never touched the retracted set), under a new handle. *)
      let red =
        List.filter
          (fun (_, _, s) -> Ledger.saved_base s || Ledger.saved_supported s)
          over
      in
      List.iter
        (fun (_, k, s) ->
          ignore (Index.insert_interned ~level:(relevel t s) k t.idx);
          Ledger.attach t.led (Index.handle t.idx k) s)
        red;
      (* Phase 3: propagate. The re-inserted facts are the delta; the
         invalidated triggers whose bodies survived refire here (and may
         resurrect more of the retracted set, with fresh nulls where the
         original derivation passed through an existential). *)
      let repaired = propagate ?obs:span t (List.map (fun (_, k, _) -> k) red) in
      let deleted =
        List.length (List.filter (fun (_, k, _) -> Index.handle t.idx k < 0) over)
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

let instance t = Index.to_instance t.idx
let index t = t.idx
let size t = Index.size t.idx
let base_size t = Ledger.base_count t.led

let base t =
  let acc = ref Instance.empty in
  Ledger.iter_base t.led (fun h ->
      acc := Instance.add_fact (Index.decode_key t.idx (Index.handle_key t.idx h)) !acc);
  !acc

let support_count t f =
  match Index.key t.idx f with
  | None -> 0
  | Some k ->
      let h = Index.handle t.idx k in
      if h < 0 then 0 else Ledger.fold_producers t.led h (fun _ n -> n + 1) 0

let metrics t = Index.metrics t.idx
let ledger_words t = Ledger.words t.led

let audit t =
  Ledger.audit t.led ~stored:(fun h ->
      Index.handle t.idx (Index.handle_key t.idx h) = h)

(* ---- checkpointing ---------------------------------------------------- *)

(* Canonical s-levels: minimum derivation depth over the live ledger,
   base facts at 0. This equals the level the level-wise chase assigns —
   the oblivious chase fires every trigger at the earliest pass its body
   is complete, so a fact's s-level is [min] over its producing triggers
   of [1 + max body level]. Monotone decreasing fixpoint; terminates
   because levels only shrink. Levels are keyed by fact handle. *)
let canonical_levels t =
  let lev = Hashtbl.create (size t) in
  Ledger.iter_base t.led (fun h -> Hashtbl.replace lev h 0);
  let level_of h = Option.value (Hashtbl.find_opt lev h) ~default:(-1) in
  let ds = ref [] in
  Ledger.iter t.led (fun d -> ds := d :: !ds);
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun d ->
        (* the highest body level, -1 while one is unknown this round *)
        let m =
          Ledger.fold_body t.led d
            (fun g acc ->
              let l = level_of g in
              if acc < 0 || l < 0 then -1 else max acc l)
            0
        in
        if m >= 0 then
          Ledger.fold_outs t.led d
            (fun o () ->
              let cur = level_of o in
              if cur < 0 || cur > m + 1 then begin
                Hashtbl.replace lev o (m + 1);
                changed := true
              end)
            ())
      !ds
  done;
  lev

let checkpoint t : Engine.Saturate.snapshot =
  ensure_saturated t;
  let lev = canonical_levels t in
  let snap_facts =
    List.map
      (fun (f, stored) ->
        ( f,
          match
            Option.bind (Index.key t.idx f) (fun k ->
                Hashtbl.find_opt lev (Index.handle t.idx k))
          with
          | Some l -> l
          | None -> stored ))
      (Index.ordered_facts t.idx)
  in
  let snap_level = List.fold_left (fun acc (_, l) -> max acc l) 0 snap_facts in
  {
    Engine.Saturate.snap_policy = Oblivious;
    snap_level;
    snap_saturated = true;
    snap_null_count = Term.null_count ();
    snap_triggers_fired = Ledger.live t.led;
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
  im_ledger : ((int * Term.const list) * Fact.t list * Fact.t list) list;
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
   handles and free-list state differ but are not observable) — and
   every fact key, so the ledger's trigger keys rebuild as they were.
   Every live derivation sits in the arena (a killed one leaves it at
   death), so iterating the arena captures (d) entirely.
   The order of the per-fact lists is not observable: every reader
   either folds associatively (relevel, support_count) or computes an
   order-independent closure (over-delete). Nor are handles and block
   ids: the image names facts, and sorts the ledger by trigger key.
   A live derivation's body and head facts are all stored, so the image
   names each of them with the one [Fact.t] decoded for [im_facts]. *)

(* A fact list sorted; [List.sort] allocates its closures even for the
   one-fact lists most derivations have. *)
let sorted = function
  | ([] | [ _ ]) as l -> l
  | l -> List.sort Fact.compare l

let rec trigger_cells st led d i =
  if i = Ledger.cells led d then []
  else Engine.Symtab.extern st (Ledger.cell led d i) :: trigger_cells st led d (i + 1)

(* [compare] on constants, without the generic structural walk. *)
let compare_const (a : Term.const) (b : Term.const) =
  match (a, b) with
  | Named x, Named y -> String.compare x y
  | Null x, Null y -> Int.compare x y
  | Named _, Null _ -> -1
  | Null _, Named _ -> 1

(* [compare] on the decoded trigger keys [(rule, [c; …])] — the order
   the image lists its ledger in — read off the derivations' rules and
   binding cells, from cell [i] on. Derivations of one rule have as many
   cells. *)
let rec compare_cells st led d1 d2 i =
  if i = Ledger.cells led d1 then 0
  else
    let a = Ledger.cell led d1 i and b = Ledger.cell led d2 i in
    let c =
      if a = b then 0
      else compare_const (Engine.Symtab.extern st a) (Engine.Symtab.extern st b)
    in
    if c <> 0 then c else compare_cells st led d1 d2 (i + 1)

let compare_trigger st led d1 d2 =
  let c = Int.compare (Ledger.rule led d1) (Ledger.rule led d2) in
  if c <> 0 then c else compare_cells st led d1 d2 0

let image t =
  ensure_saturated t;
  ensure_clean t;
  let facts, fact = Index.decode_ordered t.idx in
  let st = Index.symtab t.idx in
  let base = Array.make (Ledger.base_count t.led) (Fact.make "" []) in
  let i = ref 0 in
  Ledger.iter_base t.led (fun h ->
      base.(!i) <- fact h;
      incr i);
  Array.stable_sort Fact.compare base;
  let led = t.led in
  let ledger = Array.make (Ledger.live led) 0 in
  let i = ref 0 in
  Ledger.iter led (fun d ->
      ledger.(!i) <- d;
      incr i);
  Array.stable_sort (compare_trigger st led) ledger;
  let cons h acc = fact h :: acc in
  let entry d =
    ( (Ledger.rule led d, trigger_cells st led d 0),
      sorted (Ledger.fold_body led d cons []),
      sorted (Ledger.fold_outs led d cons []) )
  in
  let syms = List.init (Engine.Symtab.size st) (Engine.Symtab.extern st) in
  let preds =
    List.init (Engine.Symtab.pred_count st) (Engine.Symtab.extern_pred st)
  in
  {
    im_facts = facts;
    im_base = Array.to_list base;
    im_ledger = Array.fold_right (fun d acc -> entry d :: acc) ledger [];
    im_syms = syms;
    im_preds = preds;
    im_level = t.level;
    im_null_count = Term.null_count ();
    im_counters = Obs.Metrics.counters (metrics t);
  }

let of_image sigma (im : image) =
  let idx = Index.create () in
  let st = Index.symtab idx in
  List.iter (fun c -> ignore (Engine.Symtab.intern st c)) im.im_syms;
  List.iter (fun p -> ignore (Engine.Symtab.intern_pred st p)) im.im_preds;
  List.iter (fun (f, level) -> ignore (Index.insert ~level f idx)) im.im_facts;
  let handle f =
    match Option.map (Index.handle idx) (Index.key idx f) with
    | Some h when h >= 0 -> h
    | _ -> invalid_arg "Incr.of_image: a fact outside the image's facts"
  in
  let cid c =
    match Engine.Symtab.find_int st c with
    | id when id >= 0 -> id
    | _ -> invalid_arg "Incr.of_image: a trigger key outside the image's symbols"
  in
  let led = ledger sigma in
  List.iter (fun f -> Ledger.set_base led (handle f) true) im.im_base;
  List.iter
    (fun ((rule, cs), body, outs) ->
      Ledger.add led ~rule
        ~cells:(Array.of_list (List.map cid cs))
        ~body:(List.map handle body) ~outs:(List.map handle outs))
    im.im_ledger;
  Term.set_null_count im.im_null_count;
  (* cancel the rebuild's own increments (the inserts above bumped
     [index.inserts] etc.) *)
  Obs.Metrics.restore (Index.metrics idx) im.im_counters;
  make sigma idx ~led ~level:im.im_level ~sat:true

let report ?(name = "incr") ?span t =
  let rep = Obs.Report.create ~metrics:(metrics t) ?span name in
  Obs.Report.add_field rep "saturated" (Obs.Json.Bool t.sat);
  Obs.Report.add_field rep "facts" (Obs.Json.Int (size t));
  Obs.Report.add_field rep "base_facts" (Obs.Json.Int (base_size t));
  rep
