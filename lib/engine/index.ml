(** Indexed fact store, columnar edition.

    Symbols are interned to dense ints ({!Symtab}) and each predicate's
    tuples live in contiguous int columns ({!Vec}); posting lists and
    the per-predicate insertion order are flat int vectors of packed row
    handles, and membership is one hash table keyed by the interned fact
    key. See the interface for the
    contract — the observable behaviour (iteration order, counters,
    probe accounting) is bit-compatible with the previous hash-of-lists
    representation:

    - posting lists and relations iterate {e most recently added
      first}, which is the reverse of append order of the backing
      vectors;
    - [remove] prunes in place preserving that order, and freed row
      slots go on a per-relation free list that the next insert reuses,
      so insert/delete churn cannot grow the store's capacity;
    - [index.probes] counts one probe per candidate-list retrieval
      ({!fold_catom} walking a posting list or a whole relation);
    - every row carries its fact's s-level in a level column beside the
      argument columns, so the chase keeps no fact-keyed side table. *)

open Relational
open Relational.Term

(* A live row is handled as [arity << row_bits | row] so the order and
   posting vectors can span the (rare) predicates used at several
   arities while staying flat int data. *)
let row_bits = 40
let row_mask = (1 lsl row_bits) - 1
let pack ~arity row = (arity lsl row_bits) lor row
let arity_of_packed p = p lsr row_bits
let row_of_packed p = p land row_mask

type rel = {
  r_arity : int;
  r_cols : Vec.t array;  (* one column per argument position *)
  r_level : Vec.t;  (* s-level of the fact in each row *)
  mutable r_rows : int;  (* row slots allocated, including freed ones *)
  r_free : Vec.t;  (* freed row slots, reused by the next insert *)
}

type entry = {
  mutable e_rels : rel list;  (* by arity; almost always a singleton *)
  e_order : Vec.t;  (* live rows in append order *)
  mutable e_at : (int, Vec.t) Hashtbl.t array;  (* position -> cid -> posting *)
}

(* The predicate table is shared through a one-field record so readers
   keep seeing growth of the pid-indexed array. *)
type tables = { mutable entries : entry option array }

(* Tables keyed by interned fact keys [| pid; cid1; …; cidn |]: the
   membership table here, the chase's trigger tables in {!Saturate}. *)
module Keytbl = Hashtbl.Make (struct
  type t = int array

  let rec equal_from (a : int array) (b : int array) i =
    i < 0 || (Array.unsafe_get a i = Array.unsafe_get b i && equal_from a b (i - 1))

  let equal (a : int array) (b : int array) =
    Array.length a = Array.length b && equal_from a b (Array.length a - 1)

  let hash (a : int array) =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor Array.unsafe_get a i) * 0x100000001b3
    done;
    (!h lxor (!h lsr 29)) land max_int
end)

type t = {
  symtab : Symtab.t;
  tabs : tables;
  members : int Keytbl.t;  (* fact key -> packed row *)
  metrics : Obs.Metrics.t;
  (* counter handles, resolved once so the hot paths never do a name
     lookup *)
  c_probes : Obs.Metrics.counter;
  c_inserts : Obs.Metrics.counter;
  c_duplicates : Obs.Metrics.counter;
  c_removes : Obs.Metrics.counter;
}

let create () =
  let metrics = Obs.Metrics.create () in
  {
    symtab = Symtab.create ();
    tabs = { entries = Array.make 16 None };
    members = Keytbl.create 1024;
    metrics;
    c_probes = Obs.Metrics.counter metrics "index.probes";
    c_inserts = Obs.Metrics.counter metrics "index.inserts";
    c_duplicates = Obs.Metrics.counter metrics "index.duplicates";
    c_removes = Obs.Metrics.counter metrics "index.removes";
  }

(* A read-only view over the same store with a private metrics registry:
   worker domains probe through readers so the shared registry is never
   written concurrently. Safe as long as nobody inserts while readers
   are in use (the server only reads a frozen snapshot). *)
let reader idx =
  let metrics = Obs.Metrics.create () in
  {
    idx with
    metrics;
    c_probes = Obs.Metrics.counter metrics "index.probes";
    c_inserts = Obs.Metrics.counter metrics "index.inserts";
    c_duplicates = Obs.Metrics.counter metrics "index.duplicates";
    c_removes = Obs.Metrics.counter metrics "index.removes";
  }

let symtab idx = idx.symtab
let probes idx = Obs.Metrics.value idx.c_probes
let metrics idx = idx.metrics

(* Interned fact keys: [| pid; cid1; …; cidn |]. The [_find] variant
   never assigns ids — a fact with an unknown symbol cannot be stored. *)

let key_intern idx f =
  let st = idx.symtab in
  let args = Fact.args f in
  let key = Array.make (List.length args + 1) 0 in
  key.(0) <- Symtab.intern_pred st (Fact.pred f);
  List.iteri (fun i c -> key.(i + 1) <- Symtab.intern st c) args;
  key

exception Unknown

let key_find idx f =
  let st = idx.symtab in
  match Symtab.find_pred st (Fact.pred f) with
  | None -> None
  | Some pid -> (
      let args = Fact.args f in
      let key = Array.make (List.length args + 1) 0 in
      key.(0) <- pid;
      try
        List.iteri
          (fun i c ->
            match Symtab.find st c with
            | Some cid -> key.(i + 1) <- cid
            | None -> raise Unknown)
          args;
        Some key
      with Unknown -> None)

let mem_key key idx = Keytbl.mem idx.members key

let mem f idx =
  match key_find idx f with None -> false | Some key -> mem_key key idx

let key = key_find
let size idx = Keytbl.length idx.members

let entry idx pid =
  let es = idx.tabs.entries in
  if pid < Array.length es then es.(pid) else None

let entry_of idx pid =
  let tabs = idx.tabs in
  if pid >= Array.length tabs.entries then begin
    let len = ref (2 * Array.length tabs.entries) in
    while pid >= !len do
      len := 2 * !len
    done;
    let a = Array.make !len None in
    Array.blit tabs.entries 0 a 0 (Array.length tabs.entries);
    tabs.entries <- a
  end;
  match tabs.entries.(pid) with
  | Some e -> e
  | None ->
      let e = { e_rels = []; e_order = Vec.create (); e_at = [||] } in
      tabs.entries.(pid) <- Some e;
      e

(* The relation of [arity] among [rels]; raises [Not_found]. Allocation
   free, for the insert and level paths. *)
let rec rel_get arity = function
  | r :: rest -> if r.r_arity = arity then r else rel_get arity rest
  | [] -> raise Not_found

let rel_find e arity =
  match rel_get arity e.e_rels with r -> Some r | exception Not_found -> None

let rel_of e arity =
  match rel_get arity e.e_rels with
  | r -> r
  | exception Not_found ->
      let r =
        {
          r_arity = arity;
          r_cols = Array.init arity (fun _ -> Vec.create ());
          r_level = Vec.create ();
          r_rows = 0;
          r_free = Vec.create ~capacity:1 ();
        }
      in
      e.e_rels <- r :: e.e_rels;
      if Array.length e.e_at < arity then
        e.e_at <-
          Array.init arity (fun i ->
              if i < Array.length e.e_at then e.e_at.(i) else Hashtbl.create 16);
      r

let posting_of tbl cid =
  match Hashtbl.find tbl cid with
  | v -> v
  | exception Not_found ->
      let v = Vec.create ~capacity:4 () in
      Hashtbl.replace tbl cid v;
      v

(* File the new interned [key] (not yet a member; it becomes the
   members key) at s-level [level], reusing a freed row slot when one
   exists. *)
let add_row idx key ~level =
  Obs.Metrics.incr idx.c_inserts;
  let pid = key.(0) and arity = Array.length key - 1 in
  let e = entry_of idx pid in
  let r = rel_of e arity in
  let row =
    if Vec.length r.r_free > 0 then begin
      let row = Vec.pop r.r_free in
      for i = 0 to arity - 1 do
        Vec.set r.r_cols.(i) row key.(i + 1)
      done;
      Vec.set r.r_level row level;
      row
    end
    else begin
      let row = r.r_rows in
      r.r_rows <- row + 1;
      for i = 0 to arity - 1 do
        Vec.push r.r_cols.(i) key.(i + 1)
      done;
      Vec.push r.r_level level;
      row
    end
  in
  let packed = pack ~arity row in
  Vec.push e.e_order packed;
  for i = 0 to arity - 1 do
    Vec.push (posting_of e.e_at.(i) key.(i + 1)) packed
  done;
  Keytbl.replace idx.members key packed

(** [insert ?level f idx] — add [f] at s-level [level] (default 0);
    [false] when it was already present (its level is kept). *)
let insert ?(level = 0) f idx =
  Obs.Probe.hit "engine.insert";
  let key = key_intern idx f in
  if Keytbl.mem idx.members key then begin
    Obs.Metrics.incr idx.c_duplicates;
    false
  end
  else begin
    add_row idx key ~level;
    true
  end

(** [remove_key key idx] — delete the fact with interned [key]; [false]
    when it was not present. Posting lists are pruned eagerly
    (order-preserving compaction, with empty posting vectors dropped) so
    candidate counts stay exact, and the freed row slot is recycled. *)
let remove_key key idx =
  match Keytbl.find_opt idx.members key with
  | None -> false
  | Some packed ->
      Obs.Metrics.incr idx.c_removes;
      Keytbl.remove idx.members key;
      let pid = key.(0) and arity = Array.length key - 1 in
      let e = match entry idx pid with Some e -> e | None -> assert false in
      ignore (Vec.remove_value e.e_order packed);
      for i = 0 to arity - 1 do
        let tbl = e.e_at.(i) in
        let cid = key.(i + 1) in
        match Hashtbl.find_opt tbl cid with
        | None -> ()
        | Some v ->
            ignore (Vec.remove_value v packed);
            if Vec.length v = 0 then Hashtbl.remove tbl cid
      done;
      (match rel_find e arity with
      | Some r -> Vec.push r.r_free (row_of_packed packed)
      | None -> ());
      true

let remove f idx =
  match key_find idx f with None -> false | Some key -> remove_key key idx

let of_instance inst =
  let idx = create () in
  Instance.iter (fun f -> ignore (insert f idx)) inst;
  idx

let decode_key idx key =
  let st = idx.symtab in
  Fact.make (Symtab.extern_pred st key.(0))
    (List.init (Array.length key - 1) (fun i -> Symtab.extern st key.(i + 1)))

(* The relation holding the live packed handle [packed] of [pid]. *)
let rel_of_packed idx pid packed =
  match entry idx pid with
  | None -> assert false
  | Some e -> rel_get (arity_of_packed packed) e.e_rels

(* The s-level of the fact with interned [key]; [-1] when not stored.
   Allocation free: the chase reads a body level per fired trigger. *)
let key_level idx key =
  match Keytbl.find idx.members key with
  | packed ->
      Vec.get (rel_of_packed idx key.(0) packed).r_level (row_of_packed packed)
  | exception Not_found -> -1

let level idx f =
  match key_find idx f with
  | None -> None
  | Some key ->
      let l = key_level idx key in
      if l < 0 then None else Some l

let set_level idx f l =
  match Option.bind (key_find idx f) (Keytbl.find_opt idx.members) with
  | None -> invalid_arg "Index.set_level: fact not stored"
  | Some packed ->
      let pid = Symtab.find_pred_int idx.symtab (Fact.pred f) in
      Vec.set (rel_of_packed idx pid packed).r_level (row_of_packed packed) l

(* Every live row in storage order: pid-ascending over the entry table,
   each entry's [e_order] in append order. *)
let iter_rows f idx =
  Array.iteri
    (fun pid e ->
      match e with
      | None -> ()
      | Some e ->
          Vec.iter
            (fun packed ->
              f pid (rel_get (arity_of_packed packed) e.e_rels) (row_of_packed packed))
            e.e_order)
    idx.tabs.entries

let fold_levels f idx acc =
  let acc = ref acc in
  iter_rows (fun _ r row -> acc := f (Vec.get r.r_level row) !acc) idx;
  !acc

(* Storage order: [e_order] only ever sees order-preserving removals, so
   replaying the returned facts into a fresh store rebuilds every posting
   list in the same relative order this store presents. Each decoded fact
   is also filed under its row, per predicate and arity, so the lookup
   returns that same [Fact.t] for a stored key without decoding again. *)
let decode_ordered idx =
  let st = idx.symtab in
  let dummy = Fact.make "" [] in
  let memo = Array.make (Array.length idx.tabs.entries) [] in
  let out = ref [] in
  iter_rows
    (fun pid r row ->
      let facts =
        match List.assq r memo.(pid) with
        | a -> a
        | exception Not_found ->
            let a = Array.make r.r_rows dummy in
            memo.(pid) <- (r, a) :: memo.(pid);
            a
      in
      let f =
        Fact.make (Symtab.extern_pred st pid)
          (List.init r.r_arity (fun i -> Symtab.extern st (Vec.get r.r_cols.(i) row)))
      in
      facts.(row) <- f;
      out := (f, Vec.get r.r_level row) :: !out)
    idx;
  let lookup key =
    let packed = Keytbl.find idx.members key in
    let r = rel_of_packed idx key.(0) packed in
    (List.assq r memo.(key.(0))).(row_of_packed packed)
  in
  (List.rev !out, lookup)

let ordered_facts idx = fst (decode_ordered idx)

let to_instance idx =
  Keytbl.fold
    (fun key _ acc -> Instance.add_fact (decode_key idx key) acc)
    idx.members Instance.empty

(* ------------------------------------------------------------------ *)
(* Compiled atoms: the interned, allocation-free matching fast path      *)
(* ------------------------------------------------------------------ *)

(* A query atom compiled once per request against this store's symbol
   table. Constant arguments resolve to cell ids ([-1] when the constant
   is unknown to the store: a bound position that never matches);
   variable arguments resolve to slots of a caller-owned binding
   environment [benv] ([benv.(slot) >= 0] bound to that cell id, [-1]
   unbound). A head atom compiled by [compile_head] marks existential
   positions [-3]: they match like variables, and at [insert_key] their
   slot holds the payload of the fresh null to write. [c_trail] is
   private scratch: slots bound while matching one candidate row, undone
   before the next; [insert_key]/[catom_level] reuse it for the fact key
   they build. *)
type catom = {
  c_atom : Atom.t;
  mutable c_pid : int;  (* interned predicate id; -1 = unknown predicate *)
  c_arity : int;
  c_cells : int array;  (* >= 0 const cid; -1 unknown const; -2 variable;
                           -3 existential *)
  c_slots : int array;  (* per position: benv slot when c_cells.(i) < -1 *)
  c_trail : int array;  (* arity + 1 cells *)
}

let compile idx ~slot ~fresh a =
  let st = idx.symtab in
  let args = Atom.args a in
  let arity = List.length args in
  let cells = Array.make arity (-2) and slots = Array.make arity (-1) in
  List.iteri
    (fun i t ->
      match t with
      | Const c -> cells.(i) <- Symtab.find_int st c
      | Var x ->
          slots.(i) <- slot x;
          if fresh x then cells.(i) <- -3)
    args;
  {
    c_atom = a;
    c_pid = Symtab.find_pred_int st (Atom.pred a);
    c_arity = arity;
    c_cells = cells;
    c_slots = slots;
    c_trail = Array.make (arity + 1) 0;
  }

let compile_atom idx ~slot a = compile idx ~slot ~fresh:(fun _ -> false) a
let compile_head = compile

let resolve idx ca =
  let st = idx.symtab in
  if ca.c_pid < 0 then ca.c_pid <- Symtab.find_pred_int st (Atom.pred ca.c_atom);
  for i = 0 to ca.c_arity - 1 do
    (* -1 marks an unknown constant; variables are -2 and -3 *)
    if ca.c_cells.(i) = -1 then
      match List.nth (Atom.args ca.c_atom) i with
      | Const c -> ca.c_cells.(i) <- Symtab.find_int st c
      | Var _ -> assert false
  done

let catom_pid ca = ca.c_pid

(* The effective pattern id of position [i] under [benv], and whether the
   position counts as bound: a constant (known or not) is bound, a
   variable is bound iff its slot is. *)
let[@inline] cell_pattern ca benv i =
  let c = Array.unsafe_get ca.c_cells i in
  if c >= -1 then c else Array.unsafe_get benv (Array.unsafe_get ca.c_slots i)

let[@inline] cell_bound ca benv i =
  Array.unsafe_get ca.c_cells i >= -1 || cell_pattern ca benv i >= 0

(* Match position [i] of [ca] against the stored id [cell]: a constant
   or a bound slot must equal it, an unbound slot is bound to it in
   [benv] and pushed on [trail] at [nt]. Returns the new trail length, or
   -1 on a mismatch. *)
let[@inline] match_cell ca benv trail nt i (cell : int) =
  let c = Array.unsafe_get ca.c_cells i in
  if c >= -1 then if cell = c then nt else -1
  else
    let s = Array.unsafe_get ca.c_slots i in
    let cur = Array.unsafe_get benv s in
    if cur >= 0 then if cell = cur then nt else -1
    else begin
      benv.(s) <- cell;
      trail.(nt) <- s;
      nt + 1
    end

(* Unbind the first [nt] slots on [trail]. *)
let[@inline] untrail benv trail nt =
  for j = 0 to nt - 1 do
    benv.(trail.(j)) <- -1
  done

(* Does the atom still contain an unbound variable under [benv]? The
   enumerator's atom-selection predicate. *)
let catom_unbound ca ~benv =
  let r = ref false in
  for i = 0 to ca.c_arity - 1 do
    if
      Array.unsafe_get ca.c_cells i < -1
      && Array.unsafe_get benv (Array.unsafe_get ca.c_slots i) < 0
    then r := true
  done;
  !r

(* The shared empty row list: the posting of an unknown constant or of
   a constant absent at a position. Never written. *)
let no_rows = Vec.create ~capacity:1 ()

(* The rows [ca] can match under [benv], most recently added last: the
   smallest posting list over its bound positions (the first strictly
   smaller wins), or the whole relation when no position is bound. *)
let candidate_rows e ca benv =
  let best = ref e.e_order and bound = ref false in
  for i = 0 to ca.c_arity - 1 do
    if cell_bound ca benv i then begin
      let cid = cell_pattern ca benv i in
      let v =
        if cid < 0 || i >= Array.length e.e_at then no_rows
        else try Hashtbl.find e.e_at.(i) cid with Not_found -> no_rows
      in
      if (not !bound) || Vec.length v < Vec.length !best then begin
        best := v;
        bound := true
      end
    end
  done;
  !best

(* The number of rows [fold_catom] would walk; no probe is counted. *)
let catom_count idx ca ~benv =
  if ca.c_pid < 0 then 0
  else
    match entry idx ca.c_pid with
    | None -> 0
    | Some e -> Vec.length (candidate_rows e ca benv)

(* Walk the candidate rows most recently added first, binding [ca]'s
   unbound variables in [benv] in place (trail-undone per candidate and
   at exit), so a full search tree allocates nothing here. [f arg] runs
   with the extension visible in [benv]; returning [true] stops the walk
   (the satisfiability caller's early exit) and is returned. Counts one
   [index.probes] probe per call. *)
let fold_catom idx ca ~benv ~on_candidate ~on_fail (f : int -> bool) arg =
  Obs.Metrics.incr idx.c_probes;
  if ca.c_pid < 0 then false
  else
    match entry idx ca.c_pid with
    | None -> false
    | Some e ->
        let v = candidate_rows e ca benv in
        let arity = ca.c_arity in
        (* [rel_find] allocates: skip it when there is nothing to walk *)
        let rel_a = if Vec.length v = 0 then None else rel_find e arity in
        let trail = ca.c_trail in
        let stopped = ref false in
        let k = ref (Vec.length v - 1) in
        while (not !stopped) && !k >= 0 do
          let packed = Vec.get v !k in
          decr k;
          on_candidate ();
          if arity_of_packed packed <> arity then on_fail ()
          else begin
            let r = match rel_a with Some r -> r | None -> assert false in
            let row = row_of_packed packed in
            let nt = ref 0 and ok = ref true and i = ref 0 in
            while !ok && !i < arity do
              let n = match_cell ca benv trail !nt !i (Vec.get r.r_cols.(!i) row) in
              if n < 0 then ok := false else nt := n;
              incr i
            done;
            if !ok then begin if f arg then stopped := true end
            else on_fail ();
            untrail benv trail !nt
          end
        done;
        !stopped

(* [match_key], the delta-pivot step: bind [ca] against one interned
   fact key instead of a posting list, with [fold_catom]'s cell step. *)
let match_key ca ~benv key f =
  let arity = ca.c_arity in
  Array.length key = arity + 1
  && key.(0) = ca.c_pid
  &&
  let trail = ca.c_trail in
  let nt = ref 0 and ok = ref true and i = ref 0 in
  while !ok && !i < arity do
    let n = match_cell ca benv trail !nt !i (Array.unsafe_get key (!i + 1)) in
    if n < 0 then ok := false else nt := n;
    incr i
  done;
  if !ok then f ();
  untrail benv trail !nt;
  !ok

(* The fact key of a fully bound, non-existential [ca] under [benv], in
   the atom's scratch; [false] when a symbol is unknown to the store (the
   fact cannot be stored). *)
let scratch_key ca ~benv =
  let key = ca.c_trail in
  key.(0) <- ca.c_pid;
  let ok = ref (ca.c_pid >= 0) in
  for i = 0 to ca.c_arity - 1 do
    let c = cell_pattern ca benv i in
    if c < 0 then ok := false;
    key.(i + 1) <- c
  done;
  !ok

let catom_level idx ca ~benv =
  if scratch_key ca ~benv then max 0 (key_level idx ca.c_trail) else 0

let catom_key ca = Array.copy ca.c_trail

(* Insert the head [ca] under [benv], interning exactly as [key_intern]
   does on the decoded fact: the predicate first, then the arguments left
   to right. Interned ids are cached back into [ca], so a predicate or
   constant is resolved by name at most once per compiled atom. *)
let insert_key idx ~level ca ~benv =
  Obs.Probe.hit "engine.insert";
  let st = idx.symtab in
  if ca.c_pid < 0 then ca.c_pid <- Symtab.intern_pred st (Atom.pred ca.c_atom);
  let key = ca.c_trail in
  key.(0) <- ca.c_pid;
  for i = 0 to ca.c_arity - 1 do
    let c = ca.c_cells.(i) in
    key.(i + 1) <-
      (if c >= 0 then c
       else if c = -1 then begin
         let id =
           match List.nth (Atom.args ca.c_atom) i with
           | Const k -> Symtab.intern st k
           | Var _ -> assert false
         in
         ca.c_cells.(i) <- id;
         id
       end
       else
         let v = benv.(ca.c_slots.(i)) in
         if c = -2 then v else Symtab.intern_null st v)
  done;
  if Keytbl.mem idx.members key then begin
    Obs.Metrics.incr idx.c_duplicates;
    None
  end
  else begin
    let key = Array.copy key in
    add_row idx key ~level;
    Some key
  end

(* Allocated capacity of the store's flat vectors, in words — the
   capacity-leak regression tests assert this stays put under
   insert/delete churn. Hash-table buckets are not counted (stdlib
   tables expose no capacity), but every growable vector is. *)
let capacity_words idx =
  let vec v = Vec.capacity v in
  Array.fold_left
    (fun acc e ->
      match e with
      | None -> acc
      | Some e ->
          let acc = acc + vec e.e_order in
          let acc =
            List.fold_left
              (fun acc r ->
                Array.fold_left
                  (fun acc col -> acc + vec col)
                  (acc + vec r.r_free + vec r.r_level)
                  r.r_cols)
              acc e.e_rels
          in
          Array.fold_left
            (fun acc tbl -> Hashtbl.fold (fun _ v acc -> acc + vec v) tbl acc)
            acc e.e_at)
    0 idx.tabs.entries
