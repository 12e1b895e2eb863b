(** Incremental chase maintenance; see the interface for the contract.

    The ledger is two tables over one mutable [derivation] record per
    fired trigger, both keyed by the store's interned keys
    ({!Engine.Index.Keytbl}): [support] maps a fact key to the
    derivations producing the fact ([derivs]) and consuming it ([uses]),
    [fired] maps a trigger key [[| rule; cid… |]] to its (live)
    derivation. A derivation holds the very key arrays the firing
    reported, so recording one boxes no fact.
    A derivation dies when any of its body facts is over-deleted; its key
    leaves [fired] at the same moment, so the trigger may legitimately
    refire during repair. Dead records are pruned lazily from the
    per-fact lists.

    Keys are decoded to facts only where order or output needs them: the
    over-deleted set is sorted by [Fact.compare] (it fixes the re-insert
    order, hence storage order and the ids of future nulls), and
    {!checkpoint} and {!image} name facts.

    Soundness of running {!Engine.Saturate.continue} with a fresh
    trigger-key table after every mutation: a trigger enumerated by the
    delta fixpoint has a body fact in the transitive delta; for an insert
    that fact never existed before (so the trigger never fired), and for
    a delete it was over-deleted first (so the trigger's old firing was
    invalidated and removed from [fired]). Either way the firing is not a
    duplicate. *)

open Relational
module Index = Engine.Index
module Keytbl = Index.Keytbl

type derivation = {
  d_key : int array;  (* the trigger key [| rule; cid… |] *)
  d_body : int array array;  (* grounded body fact keys, deduplicated *)
  d_outs : int array array;  (* grounded head fact keys, deduplicated *)
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

(* The derivations producing and consuming one fact, live ones and dead
   ones not yet pruned. *)
type support = {
  mutable derivs : derivation list;
  mutable uses : derivation list;
}

type ledger = {
  support : support Keytbl.t;  (* fact key -> its derivations *)
  fired : derivation Keytbl.t;  (* trigger key -> its live derivation *)
}

type t = {
  prog : Engine.Saturate.program;  (* the rules, compiled against [idx] *)
  idx : Index.t;  (* the store, s-levels included *)
  base : unit Keytbl.t;
  led : ledger;
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

(* Tables for [n] derivations; they rehash only past [2 * n] entries. *)
let ledger n = { support = Keytbl.create n; fired = Keytbl.create n }

let support led k =
  match Keytbl.find led.support k with
  | s -> s
  | exception Not_found ->
      let s = { derivs = []; uses = [] } in
      Keytbl.add led.support k s;
      s

let alive ds = List.filter (fun d -> d.d_live) ds

(* Live derivations producing [k], pruning dead records in passing. *)
let live_derivs led k =
  match Keytbl.find led.support k with
  | exception Not_found -> []
  | s ->
      let l = alive s.derivs in
      s.derivs <- l;
      if l = [] && s.uses = [] then Keytbl.remove led.support k;
      l

(* Live derivations consuming [k], which is leaving the store: its uses
   are dropped. *)
let take_uses led k =
  match Keytbl.find led.support k with
  | exception Not_found -> []
  | s ->
      let l = alive s.uses in
      s.uses <- [];
      l

(* Does [keys.(i)] repeat one of [keys.(j..i-1)]? *)
let rec repeats keys i j =
  j < i && (keys.(j) = keys.(i) || repeats keys i (j + 1))

let rec clean keys i =
  i >= Array.length keys || ((not (repeats keys i 0)) && clean keys (i + 1))

(* [keys] without repeats, first occurrences kept, and [keys] itself
   when it has none: two atoms of a rule rarely ground to one fact. *)
let dedup keys =
  if clean keys 0 then keys
  else
    Array.of_list
      (List.filteri (fun i _ -> not (repeats keys i 0)) (Array.to_list keys))

let derivation (fir : Engine.Saturate.firing) =
  {
    d_key = fir.fire_key;
    d_body = dedup fir.fire_body;
    d_outs = dedup fir.fire_outs;
    d_live = true;
  }

let record led d =
  Keytbl.replace led.fired d.d_key d;
  for i = 0 to Array.length d.d_body - 1 do
    let s = support led d.d_body.(i) in
    s.uses <- d :: s.uses
  done;
  for i = 0 to Array.length d.d_outs - 1 do
    let s = support led d.d_outs.(i) in
    s.derivs <- d :: s.derivs
  done

let kill t d =
  d.d_live <- false;
  match Keytbl.find t.led.fired d.d_key with
  | d' -> if d' == d then Keytbl.remove t.led.fired d.d_key
  | exception Not_found -> ()

(* ---- construction ----------------------------------------------------- *)

(* A store over [idx], with the ledger that describes its facts. The
   maintenance counters register on the index's metrics registry, so
   they travel with the usual report plumbing. *)
let make sigma idx ~base ~led ~level ~sat =
  let m = Index.metrics idx in
  let c name = Obs.Metrics.counter m ("incr." ^ name) in
  {
    prog =
      Engine.Saturate.program
        (sigma : Tgds.Tgd.t list :> Engine.Saturate.rule list)
        idx;
    idx;
    base;
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

(* The derivations are filed once the chase is over, into tables sized
   to the trigger count. They are filed newest first: the order of the
   per-fact lists is not observable (see [image]). *)
let create ?engine ?max_level ?obs sigma db =
  let log = ref [] in
  let r =
    Tgds.Chase.run ?engine ~policy:Tgds.Chase.Oblivious ?max_level ?obs
      ~on_fire:(fun fir -> log := derivation fir :: !log)
      sigma db
  in
  let idx = Tgds.Chase.index r in
  let led = ledger (List.length !log) in
  List.iter (record led) !log;
  let base = Keytbl.create (Instance.size db) in
  Instance.iter
    (fun f -> Keytbl.replace base (Option.get (Index.key idx f)) ())
    db;
  make sigma idx ~base ~led ~level:(Tgds.Chase.max_level r)
    ~sat:(Tgds.Chase.saturated r)

(* ---- the delta fixpoint over the live store --------------------------- *)

(* Run [Saturate.continue] from the keys [delta] (already inserted into
   the index with levels set), recording new derivations. Returns the
   number of facts the fixpoint added. *)
let propagate ?obs t delta =
  if delta = [] then 0
  else begin
    let r =
      Engine.Saturate.continue ~policy:Engine.Saturate.Oblivious ?obs
        ~on_fire:(fun fir -> record t.led (derivation fir))
        t.prog ~level:t.level delta
    in
    t.level <- r.Engine.Saturate.max_level;
    List.fold_left ( + ) 0 r.Engine.Saturate.facts_per_level
  end

(* ---- mutations -------------------------------------------------------- *)

let fact_attr f = Obs.Json.String (Fmt.str "%a" Fact.pp f)

(* The key of a base fact [f]: a base fact is stored, so its symbols are
   interned. *)
let base_key t f =
  match Index.key t.idx f with
  | Some k when Keytbl.mem t.base k -> Some k
  | _ -> None

let insert ?obs t f =
  ensure_saturated t;
  ensure_clean t;
  (* probe before the first state change: an injected fault here leaves
     the store clean, so retrying the mutation is sound *)
  Obs.Probe.hit "incr.insert";
  let span = Option.map (fun p -> Obs.Span.enter p "insert") obs in
  Option.iter (fun s -> Obs.Span.set s "fact" (fact_attr f)) span;
  let eff =
    if base_key t f <> None then begin
      Obs.Metrics.incr t.c_noops;
      { e_op = Insert f; e_noop = true; e_repaired = 0; e_overdeleted = 0;
        e_rederived = 0; e_deleted = 0 }
    end
    else begin
      Obs.Metrics.incr t.c_inserts;
      t.dirty <- true;
      let repaired =
        match Index.key t.idx f with
        | Some k when Index.mem_key k t.idx ->
            (* already derivable: it gains base membership, nothing fires —
               every trigger over the existing facts has fired already *)
            Keytbl.replace t.base k ();
            0
        | _ ->
            ignore (Index.insert f t.idx);
            let k = Option.get (Index.key t.idx f) in
            Keytbl.replace t.base k ();
            1 + propagate ?obs:span t [ k ]
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
let relevel t k =
  if Keytbl.mem t.base k then 0
  else
    List.fold_left
      (fun acc d ->
        let bl =
          Array.fold_left (fun m g -> max m (Index.key_level t.idx g)) 0 d.d_body
        in
        min acc (bl + 1))
      max_int (live_derivs t.led k)

let delete ?obs t f =
  ensure_saturated t;
  ensure_clean t;
  Obs.Probe.hit "incr.delete";
  let span = Option.map (fun p -> Obs.Span.enter p "delete") obs in
  Option.iter (fun s -> Obs.Span.set s "fact" (fact_attr f)) span;
  let eff =
    match base_key t f with
    | None ->
        Obs.Metrics.incr t.c_noops;
        { e_op = Delete f; e_noop = true; e_repaired = 0; e_overdeleted = 0;
          e_rederived = 0; e_deleted = 0 }
    | Some k ->
        Obs.Metrics.incr t.c_deletes;
        t.dirty <- true;
        Keytbl.remove t.base k;
        (* Phase 1: over-delete. Retract [f] and, transitively, every fact
           produced by a derivation that consumed a retracted fact. The
           retracted set is order-independent (a closure), so the phases
           below are deterministic after sorting it by fact. *)
        let over = ref [] in
        let stack = ref [ k ] in
        while !stack <> [] do
          let g = List.hd !stack in
          stack := List.tl !stack;
          if Index.remove_key g t.idx then begin
            over := g :: !over;
            List.iter
              (fun d ->
                kill t d;
                Array.iter (fun o -> stack := o :: !stack) d.d_outs)
              (take_uses t.led g)
          end
        done;
        let over =
          List.sort
            (fun (f1, _) (f2, _) -> Fact.compare f1 f2)
            (List.map (fun g -> (Index.decode_key t.idx g, g)) !over)
        in
        let overdeleted = List.length over in
        (* Phase 2: re-derive. A retracted fact comes straight back when it
           is still base, or still carries a live derivation (one whose
           body never touched the retracted set). *)
        let red =
          List.filter
            (fun (_, g) -> Keytbl.mem t.base g || live_derivs t.led g <> [])
            over
        in
        List.iter
          (fun (h, g) -> ignore (Index.insert ~level:(relevel t g) h t.idx))
          red;
        (* Ledger entries of facts that stayed out hold only dead records. *)
        List.iter
          (fun (_, g) ->
            if not (Index.mem_key g t.idx) then Keytbl.remove t.led.support g)
          over;
        (* Phase 3: propagate. The re-inserted facts are the delta; the
           invalidated triggers whose bodies survived refire here (and may
           resurrect more of the retracted set, with fresh nulls where the
           original derivation passed through an existential). *)
        let repaired = propagate ?obs:span t (List.map snd red) in
        let deleted =
          List.length
            (List.filter (fun (_, g) -> not (Index.mem_key g t.idx)) over)
        in
        Obs.Metrics.add t.c_overdeleted overdeleted;
        Obs.Metrics.add t.c_rederived (List.length red);
        Obs.Metrics.add t.c_repaired repaired;
        Obs.Metrics.add t.c_deleted deleted;
        t.dirty <- false;
        { e_op = Delete f; e_noop = false; e_repaired = repaired;
          e_overdeleted = overdeleted; e_rederived = List.length red;
          e_deleted = deleted }
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
let base_size t = Keytbl.length t.base

let base t =
  Keytbl.fold
    (fun k () acc -> Instance.add_fact (Index.decode_key t.idx k) acc)
    t.base Instance.empty

let support_count t f =
  match Index.key t.idx f with
  | None -> 0
  | Some k -> List.length (live_derivs t.led k)

let metrics t = Index.metrics t.idx

(* ---- checkpointing ---------------------------------------------------- *)

(* Canonical s-levels: minimum derivation depth over the live ledger,
   base facts at 0. This equals the level the level-wise chase assigns —
   the oblivious chase fires every trigger at the earliest pass its body
   is complete, so a fact's s-level is [min] over its producing triggers
   of [1 + max body level]. Monotone decreasing fixpoint; terminates
   because levels only shrink. *)
let canonical_levels t =
  let lev = Keytbl.create (size t) in
  Keytbl.iter (fun k () -> Keytbl.replace lev k 0) t.base;
  let level_of k =
    match Keytbl.find lev k with l -> l | exception Not_found -> -1
  in
  let ds = Keytbl.fold (fun _ d acc -> d :: acc) t.led.fired [] in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun d ->
        (* the highest body level, -1 while one is unknown this round *)
        let m =
          Array.fold_left
            (fun acc g ->
              let l = level_of g in
              if acc < 0 || l < 0 then -1 else max acc l)
            0 d.d_body
        in
        if m >= 0 then
          Array.iter
            (fun o ->
              let cur = level_of o in
              if cur < 0 || cur > m + 1 then begin
                Keytbl.replace lev o (m + 1);
                changed := true
              end)
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
        ( f,
          match Option.bind (Index.key t.idx f) (Keytbl.find_opt lev) with
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
    snap_triggers_fired = Keytbl.length t.led.fired;
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
   every fact key, so the ledger's keys rebuild as they were. Every
   live derivation sits in [fired] (a killed record leaves [fired] at
   death), so folding [fired] captures (d) entirely.
   Ledger list order inside [support] is not observable: every
   reader either folds associatively (relevel, support_count) or
   computes an order-independent closure (over-delete).
   A live derivation's body and head facts are all stored, so the image
   names each of them with the one [Fact.t] decoded for [im_facts]. *)
let rec decode_from fact keys i =
  if i = Array.length keys then []
  else fact keys.(i) :: decode_from fact keys (i + 1)

(* The facts of [keys], sorted; [List.sort] allocates its closures even
   for the one-fact lists most derivations have. *)
let facts_of fact keys =
  match decode_from fact keys 0 with
  | ([] | [ _ ]) as l -> l
  | l -> List.sort Fact.compare l

(* [compare] on constants, without the generic structural walk. *)
let compare_const (a : Term.const) (b : Term.const) =
  match (a, b) with
  | Named x, Named y -> String.compare x y
  | Null x, Null y -> Int.compare x y
  | Named _, Null _ -> -1
  | Null _, Named _ -> 1

(* [compare] on the decoded trigger keys [(rule, [c; …])] — the
   order the image lists its ledger in — read off the interned keys from
   position [i] on. *)
let rec compare_trigger st k1 k2 i =
  let n1 = Array.length k1 and n2 = Array.length k2 in
  if i = n1 || i = n2 then Int.compare n1 n2
  else
    let c =
      if i = 0 then Int.compare k1.(0) k2.(0)
      else if k1.(i) = k2.(i) then 0
      else
        compare_const (Engine.Symtab.extern st k1.(i))
          (Engine.Symtab.extern st k2.(i))
    in
    if c <> 0 then c else compare_trigger st k1 k2 (i + 1)

let rec trigger_slots st k i =
  if i = Array.length k then []
  else Engine.Symtab.extern st k.(i) :: trigger_slots st k (i + 1)

let image t =
  ensure_saturated t;
  ensure_clean t;
  let facts, fact = Index.decode_ordered t.idx in
  let st = Index.symtab t.idx in
  let base = Array.make (Keytbl.length t.base) (Fact.make "" []) in
  ignore (Keytbl.fold (fun k () i -> base.(i) <- fact k; i + 1) t.base 0);
  Array.stable_sort Fact.compare base;
  let entry d =
    ( (d.d_key.(0), trigger_slots st d.d_key 1),
      facts_of fact d.d_body,
      facts_of fact d.d_outs )
  in
  let ledger =
    Array.make (Keytbl.length t.led.fired)
      { d_key = [||]; d_body = [||]; d_outs = [||]; d_live = false }
  in
  ignore (Keytbl.fold (fun _ d i -> ledger.(i) <- d; i + 1) t.led.fired 0);
  Array.stable_sort (fun d1 d2 -> compare_trigger st d1.d_key d2.d_key 0) ledger;
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
  let key f =
    match Index.key idx f with
    | Some k when Index.mem_key k idx -> k
    | _ -> invalid_arg "Incr.of_image: a fact outside the image's facts"
  in
  let cid c =
    match Engine.Symtab.find_int st c with
    | id when id >= 0 -> id
    | _ -> invalid_arg "Incr.of_image: a trigger key outside the image's symbols"
  in
  let base = Keytbl.create (max 16 (List.length im.im_base)) in
  List.iter (fun f -> Keytbl.replace base (key f) ()) im.im_base;
  let led = ledger (List.length im.im_ledger) in
  List.iter
    (fun ((rule, cs), body, outs) ->
      record led
        {
          d_key = Array.of_list (rule :: List.map cid cs);
          d_body = dedup (Array.of_list (List.map key body));
          d_outs = dedup (Array.of_list (List.map key outs));
          d_live = true;
        })
    im.im_ledger;
  Term.set_null_count im.im_null_count;
  (* cancel the rebuild's own increments (the inserts above bumped
     [index.inserts] etc.) *)
  Obs.Metrics.restore (Index.metrics idx) im.im_counters;
  make sigma idx ~base ~led ~level:im.im_level ~sat:true

let report ?(name = "incr") ?span t =
  let rep = Obs.Report.create ~metrics:(metrics t) ?span name in
  Obs.Report.add_field rep "saturated" (Obs.Json.Bool t.sat);
  Obs.Report.add_field rep "facts" (Obs.Json.Int (size t));
  Obs.Report.add_field rep "base_facts" (Obs.Json.Int (base_size t));
  rep
