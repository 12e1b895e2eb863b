(** Indexed fact store, columnar edition.

    Symbols are interned to dense ints ({!Symtab}) and each predicate's
    tuples live in contiguous int columns ({!Vec}); the per-predicate
    insertion order is a flat int vector of packed row handles, each
    (predicate, position) posting table is a flat int-keyed {!Itab}, and
    membership is a flat open-addressing table of fact handles that keeps
    no key of its own. See the interface for the contract — the
    observable behaviour (iteration order, counters, probe accounting) is
    bit-compatible with the previous hash-of-lists representation:

    - posting lists and relations iterate {e most recently added
      first}, which is the reverse of append order of the backing
      vectors;
    - a posting with one live row is that row's packed handle, held
      inline in the posting table; the second row promotes it to a
      vector (oldest row first) and a removal that leaves one live row
      demotes it back;
    - every row carries the insertion stamp of its fact, so the order
      and posting vectors, which only see appends and order-preserving
      removals, are sorted by stamp: [remove] binary-searches each of
      them and leaves a tombstone ({!Vec.kill}) that readers skip;
    - freed row slots go on a per-relation free list that the next
      insert reuses, and a vector drops its tombstones once they are
      more than half of it, so insert/delete churn cannot grow the
      store's capacity;
    - a membership slot holds a fact's handle and its key's hash, two
      off-heap ints: a lookup compares the key sought with the row's own
      columns, and a removal shifts the probe run back as {!Itab} does,
      so the table costs no block per fact and churn cannot grow it;
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
  r_id : int;  (* dense over the store, in creation order: see {!handle} *)
  r_pid : int;
  r_arity : int;
  r_cols : Vec.t array;  (* one column per argument position *)
  r_level : Vec.t;  (* s-level of the fact in each row *)
  r_stamp : Vec.t;  (* insertion stamp of the fact in each row *)
  mutable r_rows : int;  (* row slots allocated, including freed ones *)
  r_free : Vec.t;  (* freed row slots, reused by the next insert *)
}

(* A posting — the rows filed under one (predicate, position, cell) —
   is named by an int code [p] that needs no block of its own:
   - [p >= 0]: exactly one live row, whose packed handle [p] is;
   - [p = -1]: no row;
   - [p <= -2]: two or more live rows, in the vector [e_vecs.(-p - 2)]
     (append order, with tombstones).
   Slot 0 of [e_vecs] is the order vector, so [-2] names the whole
   relation. The posting tables hold the codes of non-empty postings. *)
let no_posting = -1
let order_posting = -2
let[@inline] vec_posting slot = -slot - 2
let[@inline] posting_slot p = -p - 2

type entry = {
  mutable e_rels : rel list;  (* by arity; almost always a singleton *)
  e_order : Vec.t;  (* rows in append order, with tombstones *)
  mutable e_at : Itab.t array;  (* position -> cid -> posting code *)
  mutable e_vecs : Vec.t array;  (* posting vectors; slot 0 is [e_order] *)
  mutable e_nvecs : int;  (* slots of [e_vecs] in use, freed ones included *)
  e_vfree : Vec.t;  (* freed slots of [e_vecs], reused by the next promotion *)
}

(* The vector of a freed [e_vecs] slot. Never written. *)
let freed_vec = Vec.create ~capacity:1 ()

(* The predicate table is shared through a record so readers keep
   seeing growth of the pid-indexed array. [stamp] is the next insertion
   stamp; [rels] holds every relation under its id, [nrels] of them. *)
type tables = {
  mutable entries : entry option array;
  mutable stamp : int;
  mutable rels : rel array;
  mutable nrels : int;
}

(* The hash of an interned fact key [| pid; cid1; …; cidn |]:
   non-negative, and a function of the key's cells alone, so the
   membership table can file a fact by it and never keep the key. *)
let hash_key (a : int array) =
  let h = ref (Array.length a) in
  for i = 0 to Array.length a - 1 do
    h := (!h lxor Array.unsafe_get a i) * 0x100000001b3
  done;
  (!h lxor (!h lsr 29)) land max_int

(* Tables keyed by interned fact keys: the chase's trigger tables in
   {!Saturate} and the type registry of the ground closure. *)
module Keytbl = Hashtbl.Make (struct
  type t = int array

  let rec equal_from (a : int array) (b : int array) i =
    i < 0 || (Array.unsafe_get a i = Array.unsafe_get b i && equal_from a b (i - 1))

  let equal (a : int array) (b : int array) =
    Array.length a = Array.length b && equal_from a b (Array.length a - 1)

  let hash = hash_key
end)

(* Fact handles: a stored fact's relation id above [row_bits], its row
   below. *)
let[@inline] handle_rel h = h lsr row_bits
let[@inline] handle_row h = h land row_mask
let[@inline] handle_of ~rel ~row = (rel lsl row_bits) lor row

(* The membership table: open addressing with linear probing over one
   flat int Bigarray, as in {!Itab}. Slot [i] holds a stored fact's
   handle at [2i] ([no_member] when the slot is empty) and the hash of
   its key at [2i + 1]; the capacity is [1 lsl m_bits] slots, at most
   3/4 of them full. *)
type members = {
  mutable m_slots : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable m_bits : int;
  mutable m_count : int;
}

let no_member = -1
let[@inline] mget m i = Bigarray.Array1.unsafe_get m.m_slots i
let[@inline] mset m i x = Bigarray.Array1.unsafe_set m.m_slots i x

let alloc_slots bits =
  let s = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (2 lsl bits) in
  Bigarray.Array1.fill s no_member;
  s

(* Fibonacci hashing of a key hash onto [bits] bits, as {!Itab} does. *)
let[@inline] home bits h = (h * 0x278DDE6E5FD29F05) lsr (63 - bits)

(* File handle [hd] with key hash [h] in the first empty slot of its
   probe run. *)
let member_place m h hd =
  let mask = (1 lsl m.m_bits) - 1 in
  let i = ref (home m.m_bits h) in
  while mget m (2 * !i) <> no_member do
    i := (!i + 1) land mask
  done;
  mset m (2 * !i) hd;
  mset m ((2 * !i) + 1) h;
  m.m_count <- m.m_count + 1

(* File a fact absent from the table; the table doubles first when it
   would be more than 3/4 full, re-filing each member by its stored
   hash. *)
let member_add m h hd =
  if 4 * (m.m_count + 1) > 3 lsl m.m_bits then begin
    let old = m.m_slots and n = 1 lsl m.m_bits in
    m.m_slots <- alloc_slots (m.m_bits + 1);
    m.m_bits <- m.m_bits + 1;
    m.m_count <- 0;
    for i = 0 to n - 1 do
      let hd' = Bigarray.Array1.unsafe_get old (2 * i) in
      if hd' <> no_member then
        member_place m (Bigarray.Array1.unsafe_get old ((2 * i) + 1)) hd'
    done
  end;
  member_place m h hd

(* Empty the full slot [hole] by backward shift: walk the probe run
   after it and move back every member whose home does not lie
   cyclically in (hole, its slot], so no probe run is cut short and no
   tombstone is left. *)
let member_remove m hole =
  let bits = m.m_bits in
  let mask = (1 lsl bits) - 1 in
  let hole = ref hole in
  m.m_count <- m.m_count - 1;
  let j = ref ((!hole + 1) land mask) in
  while mget m (2 * !j) <> no_member do
    let h = home bits (mget m ((2 * !j) + 1)) and i = !hole in
    let stays = if i <= !j then i < h && h <= !j else i < h || h <= !j in
    if not stays then begin
      mset m (2 * i) (mget m (2 * !j));
      mset m ((2 * i) + 1) (mget m ((2 * !j) + 1));
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  mset m (2 * !hole) no_member;
  mset m ((2 * !hole) + 1) no_member

type t = {
  symtab : Symtab.t;
  tabs : tables;
  members : members;
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
    tabs = { entries = Array.make 16 None; stamp = 0; rels = [||]; nrels = 0 };
    members = { m_slots = alloc_slots 4; m_bits = 4; m_count = 0 };
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

(* Do columns [0 .. i] of row [row] of [r] hold cells [1 .. i+1] of
   [key]? *)
let rec cells_are r row key i =
  i < 0 || (Vec.get r.r_cols.(i) row = key.(i + 1) && cells_are r row key (i - 1))

(* Does row [row] of [r] hold the fact with interned [key]? *)
let row_is r row key =
  r.r_pid = key.(0)
  && r.r_arity = Array.length key - 1
  && cells_are r row key (r.r_arity - 1)

(* The membership slot of the fact with interned [key] and key hash
   [h], or the empty slot that ends its probe run (the table is never
   full, so there is one). *)
let member_slot idx key h =
  let m = idx.members and rels = idx.tabs.rels in
  let mask = (1 lsl m.m_bits) - 1 in
  let i = ref (home m.m_bits h) in
  while
    let hd = mget m (2 * !i) in
    hd <> no_member
    && not (mget m ((2 * !i) + 1) = h && row_is rels.(handle_rel hd) (handle_row hd) key)
  do
    i := (!i + 1) land mask
  done;
  !i

(* The handle of the stored fact with interned [key], or [no_member]. *)
let handle idx key = mget idx.members (2 * member_slot idx key (hash_key key))

(* Interned fact keys: [| pid; cid1; …; cidn |]. The [_find] variant
   never assigns ids — a fact with an unknown symbol cannot be stored. *)

let intern idx f =
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

let mem_key key idx = handle idx key <> no_member

let mem f idx =
  match key_find idx f with None -> false | Some key -> mem_key key idx

let key = key_find
let size idx = idx.members.m_count

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
      let order = Vec.create () in
      let e =
        {
          e_rels = [];
          e_order = order;
          e_at = [||];
          e_vecs = [| order |];
          e_nvecs = 1;
          e_vfree = Vec.create ~capacity:1 ();
        }
      in
      tabs.entries.(pid) <- Some e;
      e

(* The relation of [arity] among [rels]; raises [Not_found]. Allocation
   free, for the insert and level paths. *)
let rec rel_get arity = function
  | r :: rest -> if r.r_arity = arity then r else rel_get arity rest
  | [] -> raise Not_found

let rel_of idx e pid arity =
  match rel_get arity e.e_rels with
  | r -> r
  | exception Not_found ->
      let tabs = idx.tabs in
      let r =
        {
          r_id = tabs.nrels;
          r_pid = pid;
          r_arity = arity;
          r_cols = Array.init arity (fun _ -> Vec.create ());
          r_level = Vec.create ();
          r_stamp = Vec.create ();
          r_rows = 0;
          r_free = Vec.create ~capacity:1 ();
        }
      in
      if tabs.nrels = Array.length tabs.rels then begin
        let a = Array.make (max 8 (2 * tabs.nrels)) r in
        Array.blit tabs.rels 0 a 0 tabs.nrels;
        tabs.rels <- a
      end;
      tabs.rels.(tabs.nrels) <- r;
      tabs.nrels <- tabs.nrels + 1;
      e.e_rels <- r :: e.e_rels;
      if Array.length e.e_at < arity then
        e.e_at <-
          Array.init arity (fun i ->
              if i < Array.length e.e_at then e.e_at.(i) else Itab.create ());
      r

(* The live row count of posting [p] of [e]. *)
let[@inline] posting_live e p =
  if p >= 0 then 1
  else if p = no_posting then 0
  else Vec.live (Array.unsafe_get e.e_vecs (posting_slot p))

(* A slot of [e_vecs] holding [v]: a freed one when there is one. *)
let vec_slot_of e v =
  if Vec.length e.e_vfree > 0 then begin
    let slot = Vec.pop e.e_vfree in
    e.e_vecs.(slot) <- v;
    slot
  end
  else begin
    let slot = e.e_nvecs in
    if slot = Array.length e.e_vecs then begin
      let a = Array.make (2 * slot) freed_vec in
      Array.blit e.e_vecs 0 a 0 slot;
      e.e_vecs <- a
    end;
    e.e_vecs.(slot) <- v;
    e.e_nvecs <- slot + 1;
    slot
  end

(* File the new row [packed] under [cid] in the posting table [tbl]: an
   absent posting becomes the row itself, a singleton is promoted to a
   vector holding the old row, then the new one. *)
let post e tbl cid packed =
  let p = Itab.find tbl cid in
  if p = no_posting then Itab.replace tbl cid packed
  else if p >= 0 then begin
    let v = Vec.create ~capacity:4 () in
    Vec.push v p;
    Vec.push v packed;
    Itab.replace tbl cid (vec_posting (vec_slot_of e v))
  end
  else Vec.push e.e_vecs.(posting_slot p) packed

(* File the new interned [key] (not yet a member), whose hash is [h], at
   s-level [level], reusing a freed row slot when one exists; returns
   its handle. The key array is only read. *)
let add_row idx key h ~level =
  Obs.Metrics.incr idx.c_inserts;
  let pid = key.(0) and arity = Array.length key - 1 in
  let e = entry_of idx pid in
  let r = rel_of idx e pid arity in
  let stamp = idx.tabs.stamp in
  idx.tabs.stamp <- stamp + 1;
  let row =
    if Vec.length r.r_free > 0 then begin
      let row = Vec.pop r.r_free in
      for i = 0 to arity - 1 do
        Vec.set r.r_cols.(i) row key.(i + 1)
      done;
      Vec.set r.r_level row level;
      Vec.set r.r_stamp row stamp;
      row
    end
    else begin
      let row = r.r_rows in
      r.r_rows <- row + 1;
      for i = 0 to arity - 1 do
        Vec.push r.r_cols.(i) key.(i + 1)
      done;
      Vec.push r.r_level level;
      Vec.push r.r_stamp stamp;
      row
    end
  in
  let packed = pack ~arity row in
  Vec.push e.e_order packed;
  for i = 0 to arity - 1 do
    post e e.e_at.(i) key.(i + 1) packed
  done;
  let hd = handle_of ~rel:r.r_id ~row in
  member_add idx.members h hd;
  hd

(* File [key] at s-level [level] unless it is a member already: the new
   fact's handle, or [no_member]. *)
let add_key idx ~level key =
  let h = hash_key key in
  if mget idx.members (2 * member_slot idx key h) <> no_member then begin
    Obs.Metrics.incr idx.c_duplicates;
    no_member
  end
  else add_row idx key h ~level

(** [insert ?level f idx] — add [f] at s-level [level] (default 0);
    [false] when it was already present (its level is kept). *)
let insert ?(level = 0) f idx =
  Obs.Probe.hit "engine.insert";
  add_key idx ~level (intern idx f) <> no_member

let insert_interned ?(level = 0) key idx =
  Obs.Probe.hit "engine.insert";
  add_key idx ~level key <> no_member

(* The stamp of slot [i] of an order or posting vector of [e]: a live
   slot holds a packed row, a tombstone [-stamp-1]. *)
let stamp_at e v i =
  let x = Vec.get v i in
  if x < 0 then -x - 1
  else Vec.get (rel_get (arity_of_packed x) e.e_rels).r_stamp (row_of_packed x)

(* The slot of [v] holding the row stamped [s], by binary search: the
   vector is sorted by stamp, and its tombstones keep theirs. *)
let slot_of_stamp e v s =
  let rec go lo hi =
    if lo >= hi then invalid_arg "Index: row missing from its posting"
    else
      let mid = (lo + hi) / 2 in
      let m = stamp_at e v mid in
      if m = s then mid else if m < s then go (mid + 1) hi else go lo mid
  in
  go 0 (Vec.length v)

(* Unfile the row stamped [stamp] from [cid]'s posting in [tbl]. A
   singleton posting is that row: its table entry goes, with no search.
   In a vector the row's slot is found by binary search and becomes the
   tombstone [-stamp-1]; a vector left with one live row is demoted to
   it (the vector then has at most two slots, as [Vec.kill] squeezes a
   longer one), and its [e_vecs] slot is freed. *)
let unpost e tbl cid stamp =
  let p = Itab.find tbl cid in
  if p >= 0 then Itab.remove tbl cid
  else begin
    let slot = posting_slot p in
    let v = e.e_vecs.(slot) in
    Vec.kill v (slot_of_stamp e v stamp) (-stamp - 1);
    if Vec.live v = 1 then begin
      let i = ref 0 in
      while Vec.get v !i < 0 do
        incr i
      done;
      Itab.replace tbl cid (Vec.get v !i);
      e.e_vecs.(slot) <- freed_vec;
      Vec.push e.e_vfree slot
    end
  end

(** [remove_key key idx] — delete the fact with interned [key]; [false]
    when it was not present. The row's slot in the order vector is found
    by binary search on its stamp and turned into a tombstone, and the
    row is unfiled from each of its postings ({!unpost}), so candidate
    counts stay exact; the freed row slot is recycled. *)
let remove_key key idx =
  let slot = member_slot idx key (hash_key key) in
  let hd = mget idx.members (2 * slot) in
  if hd = no_member then false
  else begin
    Obs.Metrics.incr idx.c_removes;
    member_remove idx.members slot;
    let pid = key.(0) and arity = Array.length key - 1 in
    let e = match entry idx pid with Some e -> e | None -> assert false in
    let r = idx.tabs.rels.(handle_rel hd) and row = handle_row hd in
    let stamp = Vec.get r.r_stamp row in
    Vec.kill e.e_order (slot_of_stamp e e.e_order stamp) (-stamp - 1);
    for i = 0 to arity - 1 do
      unpost e e.e_at.(i) key.(i + 1) stamp
    done;
    Vec.push r.r_free row;
    true
  end

let remove f idx =
  match key_find idx f with None -> false | Some key -> remove_key key idx

let of_instance inst =
  let idx = create () in
  Instance.iter (fun f -> ignore (insert f idx)) inst;
  idx

(* [Fact.compare], which is [Instance.iter]'s order, without polymorphic
   compare: the predicate, then the arguments left to right, a shorter
   list first, a named constant before a null. *)
let compare_const a b =
  match (a, b) with
  | Named x, Named y -> String.compare x y
  | Null i, Null j -> Int.compare i j
  | Named _, Null _ -> -1
  | Null _, Named _ -> 1

let rec compare_args xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs, y :: ys ->
      let c = compare_const x y in
      if c <> 0 then c else compare_args xs ys

let compare_fact a b =
  let c = String.compare (Fact.pred a) (Fact.pred b) in
  if c <> 0 then c else compare_args (Fact.args a) (Fact.args b)

(* The distinct facts in [Fact.compare] order, as [of_instance] files an
   instance of them, so the two stores agree on every id, row and stamp. *)
let of_facts fs =
  let a = Array.of_list fs in
  Array.stable_sort compare_fact a;
  let idx = create () in
  Array.iteri
    (fun i f -> if i = 0 || compare_fact a.(i - 1) f <> 0 then ignore (insert f idx))
    a;
  idx

let symbols idx =
  let st = idx.symtab in
  ConstSet.of_list (List.init (Symtab.size st) (Symtab.extern st))

let decode_key idx key =
  let st = idx.symtab in
  Fact.make (Symtab.extern_pred st key.(0))
    (List.init (Array.length key - 1) (fun i -> Symtab.extern st key.(i + 1)))

let rel_of_handle idx h = idx.tabs.rels.(handle_rel h)

(* The s-level of the fact with interned [key]; [-1] when not stored.
   Allocation free: the chase reads a body level per fired trigger. *)
let key_level idx key =
  let h = handle idx key in
  if h = no_member then -1 else Vec.get (rel_of_handle idx h).r_level (handle_row h)

let level idx f =
  match key_find idx f with
  | None -> None
  | Some key ->
      let l = key_level idx key in
      if l < 0 then None else Some l

let set_level idx f l =
  let h = match key_find idx f with Some key -> handle idx key | None -> no_member in
  if h = no_member then invalid_arg "Index.set_level: fact not stored";
  Vec.set (rel_of_handle idx h).r_level (handle_row h) l

(* The fact in row [row] of [r], a relation of [pid]. *)
let decode_row st pid r row =
  Fact.make (Symtab.extern_pred st pid)
    (List.init r.r_arity (fun i -> Symtab.extern st (Vec.get r.r_cols.(i) row)))

(* Every live row in storage order: pid-ascending over the entry table,
   each entry's [e_order] in append order, tombstones skipped. *)
let iter_rows f idx =
  Array.iteri
    (fun pid e ->
      match e with
      | None -> ()
      | Some e ->
          Vec.iter
            (fun packed ->
              if packed >= 0 then
                f pid (rel_get (arity_of_packed packed) e.e_rels) (row_of_packed packed))
            e.e_order)
    idx.tabs.entries

let iter_handles f idx =
  iter_rows (fun _ r row -> f (handle_of ~rel:r.r_id ~row)) idx

let handle_key idx h =
  let r = rel_of_handle idx h and row = handle_row h in
  let key = Array.make (r.r_arity + 1) r.r_pid in
  for i = 0 to r.r_arity - 1 do
    key.(i + 1) <- Vec.get r.r_cols.(i) row
  done;
  key

let handle_level idx h = Vec.get (rel_of_handle idx h).r_level (handle_row h)
let handle_pid idx h = (rel_of_handle idx h).r_pid

let fold_levels f idx acc =
  let acc = ref acc in
  iter_rows (fun _ r row -> acc := f (Vec.get r.r_level row) !acc) idx;
  !acc

(* Storage order: [e_order] only ever sees order-preserving removals, so
   replaying the returned facts into a fresh store rebuilds every posting
   list in the same relative order this store presents. Each decoded fact
   is also filed under its handle, so the lookup returns that same
   [Fact.t] for a stored fact without decoding again. *)
let decode_ordered idx =
  let st = idx.symtab in
  let dummy = Fact.make "" [] in
  let memo =
    Array.init idx.tabs.nrels (fun i -> Array.make idx.tabs.rels.(i).r_rows dummy)
  in
  let out = ref [] in
  iter_rows
    (fun pid r row ->
      let f = decode_row st pid r row in
      memo.(r.r_id).(row) <- f;
      out := (f, Vec.get r.r_level row) :: !out)
    idx;
  (List.rev !out, fun h -> memo.(handle_rel h).(handle_row h))

let ordered_facts idx = fst (decode_ordered idx)

let to_instance idx =
  let inst = ref Instance.empty in
  iter_rows
    (fun pid r row -> inst := Instance.add_fact (decode_row idx.symtab pid r row) !inst)
    idx;
  !inst

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

(* The posting [ca] can match under [benv], most recently added row
   last: the one with the fewest live rows over its bound positions (the
   first strictly smaller wins; an unknown constant's, or one absent at
   a position, is [no_posting]), or the whole relation when no position
   is bound. *)
let candidate_rows e ca benv =
  let best = ref order_posting and best_live = ref 0 and bound = ref false in
  for i = 0 to ca.c_arity - 1 do
    if cell_bound ca benv i then begin
      let cid = cell_pattern ca benv i in
      let p =
        if cid < 0 || i >= Array.length e.e_at then no_posting
        else Itab.find (Array.unsafe_get e.e_at i) cid
      in
      let live = posting_live e p in
      if (not !bound) || live < !best_live then begin
        best := p;
        best_live := live;
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
    | Some e -> posting_live e (candidate_rows e ca benv)

(* The relation of a catom whose arity the store does not hold: every
   candidate then fails on arity before a column is read. *)
let no_rel =
  {
    r_id = -1;
    r_pid = -1;
    r_arity = -1;
    r_cols = [||];
    r_level = freed_vec;
    r_stamp = freed_vec;
    r_rows = 0;
    r_free = freed_vec;
  }

(* Consider the live row [packed] of relation [r] as a candidate for
   [ca]: bind [ca]'s unbound variables to its cells, run [f arg] on a
   match, and undo the bindings. [true] when [f] asks to stop. *)
let visit_row ca benv r ~on_candidate ~on_fail (f : int -> bool) arg packed =
  on_candidate ();
  let arity = ca.c_arity in
  if arity_of_packed packed <> arity then begin
    on_fail ();
    false
  end
  else begin
    let trail = ca.c_trail and row = row_of_packed packed in
    let nt = ref 0 and ok = ref true and i = ref 0 in
    while !ok && !i < arity do
      let n = match_cell ca benv trail !nt !i (Vec.get r.r_cols.(!i) row) in
      if n < 0 then ok := false else nt := n;
      incr i
    done;
    let stop =
      if !ok then f arg
      else begin
        on_fail ();
        false
      end
    in
    untrail benv trail !nt;
    stop
  end

(* Walk the live candidate rows most recently added first (a tombstone
   is skipped unseen: it is no candidate), binding [ca]'s
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
        let p = candidate_rows e ca benv in
        if p = no_posting then false
        else
          let r =
            match rel_get ca.c_arity e.e_rels with
            | r -> r
            | exception Not_found -> no_rel
          in
          if p >= 0 then visit_row ca benv r ~on_candidate ~on_fail f arg p
          else begin
            let v = e.e_vecs.(posting_slot p) in
            let stopped = ref false and k = ref (Vec.length v - 1) in
            while (not !stopped) && !k >= 0 do
              let packed = Vec.get v !k in
              decr k;
              if packed >= 0 then
                stopped := visit_row ca benv r ~on_candidate ~on_fail f arg packed
            done;
            !stopped
          end

(* [match_handle], the delta-pivot step: bind [ca] against the row of
   one stored fact instead of a posting list, with [fold_catom]'s cell
   step. *)
let match_handle idx ca ~benv h f =
  let r = rel_of_handle idx h and row = handle_row h in
  let arity = ca.c_arity in
  r.r_arity = arity
  && r.r_pid = ca.c_pid
  &&
  let trail = ca.c_trail in
  let nt = ref 0 and ok = ref true and i = ref 0 in
  while !ok && !i < arity do
    let n = match_cell ca benv trail !nt !i (Vec.get r.r_cols.(!i) row) in
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

let catom_handle idx ca = handle idx ca.c_trail

(* Insert the head [ca] under [benv], interning exactly as [intern]
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
  add_key idx ~level key

(* Allocated capacity of the store's flat vectors and of its membership
   table, in words — the capacity-leak regression tests assert this
   stays put under insert/delete churn. The posting tables are not
   counted (they never shrink), so a singleton posting, which lives in
   its table, costs nothing here; every growable vector is counted. *)
let capacity_words idx =
  let vec v = Vec.capacity v in
  Array.fold_left
    (fun acc e ->
      match e with
      | None -> acc
      | Some e ->
          let acc = ref (acc + vec e.e_vfree) in
          for slot = 0 to e.e_nvecs - 1 do
            let v = e.e_vecs.(slot) in
            if v != freed_vec then acc := !acc + vec v
          done;
          List.fold_left
            (fun acc r ->
              Array.fold_left
                (fun acc col -> acc + vec col)
                (acc + vec r.r_free + vec r.r_level + vec r.r_stamp)
                r.r_cols)
            !acc e.e_rels)
    (2 lsl idx.members.m_bits)
    idx.tabs.entries

(* The facts over a handful of cells, from their postings: each fact is
   reported from the first cell of [cids] it mentions, at the first
   position holding that cell. A nullary fact lies over any cells; its
   relation is probed for its single key. *)
let fold_within idx cids f acc =
  let n = Array.length cids in
  let rec mem c k = k < n && (cids.(k) = c || mem c (k + 1)) in
  let rec before c k = k > 0 && (cids.(k - 1) = c || before c (k - 1)) in
  let acc = ref acc in
  Array.iteri
    (fun pid e ->
      match e with
      | None -> ()
      | Some e ->
          List.iter
            (fun r ->
              if r.r_arity = 0 then begin
                if mem_key [| pid |] idx then acc := f [| pid |] !acc
              end
              else
                for k = 0 to n - 1 do
                  let c = cids.(k) in
                  for i = 0 to r.r_arity - 1 do
                    let visit packed =
                      if packed >= 0 && arity_of_packed packed = r.r_arity then begin
                        let row = row_of_packed packed in
                        let cell j = Vec.get r.r_cols.(j) row in
                        let ok = ref true in
                        for j = 0 to r.r_arity - 1 do
                          let x = cell j in
                          if (not (mem x 0)) || before x k || (j < i && x = c) then
                            ok := false
                        done;
                        if !ok then begin
                          let key = Array.make (r.r_arity + 1) pid in
                          for j = 1 to r.r_arity do
                            key.(j) <- cell (j - 1)
                          done;
                          acc := f key !acc
                        end
                      end
                    in
                    let p = Itab.find e.e_at.(i) c in
                    if p >= 0 then visit p
                    else if p < no_posting then Vec.iter visit e.e_vecs.(posting_slot p)
                  done
                done)
            e.e_rels)
    idx.tabs.entries;
  !acc
