(** Streaming answer enumeration over {!Index} posting lists; see the
    interface for the algorithm and the budget/observability contract.

    The search runs end-to-end on interned ints: per disjunct the query
    compiles to a {!Index.catom} array plus a flat binding environment
    (variable slot -> cell id), the cross-disjunct seen-set keys on int
    tuples, and answers accumulate as id rows in a reusable arena.
    Materialization to [const list list] is a single deferred pass —
    callers that render or count straight from ids never pay it. The
    observable contract (answer sets, emission order under a budget,
    candidate/probe/joiner counters, span attributes) is bit-compatible
    with the previous [VarMap]-based implementation; the difference is
    that a request allocates O(query + answers) minor words instead of
    O(search tree). *)

open Relational
open Relational.Term

type result = {
  answers : const list list;
  outcome : Obs.Budget.outcome;
}

(* Raised to unwind the search when the budget cuts mid-enumeration; the
   accumulated prefix is kept. *)
exception Cut of Obs.Budget.violation

(* ------------------------------------------------------------------ *)
(* Evaluation context: per-consumer scratch, reusable across requests   *)
(* ------------------------------------------------------------------ *)

(* Universe constants unknown to the store's symbol table (possible for
   an input-database domain wider than the stored facts) get synthetic
   ids [cx_symsize + k] backed by [cx_extras] — the id space stays dense
   and every answer cell externs in O(1). *)
type ctx = {
  cx_idx : Index.t;
  cx_counters : Joiner.counters;  (* [cx_idx]'s, for the witness checks *)
  cx_symsize : int;
  cx_umask : Bytes.t;  (* universe membership: byte [id] is 1 for a member *)
  cx_uni : int array;  (* universe ids in sorted-constant order, null-free *)
  cx_extras : const array;  (* consts behind ids >= cx_symsize *)
  cx_seen : (int array, unit) Hashtbl.t;  (* cleared per request *)
  mutable cx_rows : int array array;  (* answer arena, reused *)
  mutable cx_nrows : int;
}

let ctx ~universe idx =
  let st = Index.symtab idx in
  let symsize = Symtab.size st in
  let universe = ConstSet.filter (fun c -> not (is_null c)) universe in
  (* a bound cell is a store id, so the mask covers the store's ids;
     the synthetic ids of [extras] only ever range over [cx_uni] *)
  let umask = Bytes.make symsize '\000' in
  let extras = ref [] and nextras = ref 0 in
  let uni = Array.make (max (ConstSet.cardinal universe) 1) 0 in
  let k = ref 0 in
  ConstSet.iter
    (fun c ->
      let id =
        let i = Symtab.find_int st c in
        if i >= 0 then (Bytes.set umask i '\001'; i)
        else begin
          let i = symsize + !nextras in
          incr nextras;
          extras := c :: !extras;
          i
        end
      in
      uni.(!k) <- id;
      incr k)
    universe;
  {
    cx_idx = idx;
    cx_counters = Joiner.counters idx;
    cx_symsize = symsize;
    cx_umask = umask;
    cx_uni = Array.sub uni 0 !k;
    cx_extras = Array.of_list (List.rev !extras);
    cx_seen = Hashtbl.create 64;
    cx_rows = Array.make 64 [||];
    cx_nrows = 0;
  }

let cx_const cx id =
  if id < cx.cx_symsize then Symtab.extern (Index.symtab cx.cx_idx) id
  else cx.cx_extras.(id - cx.cx_symsize)

let push_row cx row =
  let n = cx.cx_nrows in
  let cap = Array.length cx.cx_rows in
  if n = cap then begin
    let a = Array.make (2 * cap) [||] in
    Array.blit cx.cx_rows 0 a 0 cap;
    cx.cx_rows <- a
  end;
  cx.cx_rows.(n) <- row;
  cx.cx_nrows <- n + 1

(* ------------------------------------------------------------------ *)
(* Interned results                                                     *)
(* ------------------------------------------------------------------ *)

(* Rows are kept in emission order (the budget prefix is the first
   [icount] emitted); the canonical sorted view is computed lazily so
   [count] consumers never pay it. *)
type interned = {
  irows : int array array;
  ioutcome : Obs.Budget.outcome;
  iconst : int -> const;
  mutable isorted : int array array option;
}

let icount it = Array.length it.irows
let ioutcome it = it.ioutcome
let iconst it id = it.iconst id

(* Lexicographic on externed constants, shorter-prefix-first — exactly
   [Stdlib.compare] on the materialized [const list]s. *)
(* top-level recursion, not an inner [let rec]: the sort calls this
   O(n log n) times and an inner recursive closure would be allocated
   per comparison *)
let rec compare_cells iconst a b n i =
  if i = n then 0
  else
    let c = Stdlib.compare (iconst a.(i)) (iconst b.(i)) in
    if c <> 0 then c else compare_cells iconst a b n (i + 1)

let compare_rows iconst a b =
  let la = Array.length a and lb = Array.length b in
  let n = if la < lb then la else lb in
  let c = compare_cells iconst a b n 0 in
  if c <> 0 then c else Int.compare la lb

let sorted_rows it =
  match it.isorted with
  | Some r -> r
  | None ->
      let r = Array.copy it.irows in
      Array.sort (compare_rows it.iconst) r;
      it.isorted <- Some r;
      r

let materialize it =
  {
    answers =
      Array.fold_right
        (fun row acc ->
          Array.fold_right (fun id t -> it.iconst id :: t) row [] :: acc)
        (sorted_rows it) [];
    outcome = it.ioutcome;
  }

(* Test/render constructor: an interned result over a local symbol
   assignment (first-seen ids). *)
let of_answers answers outcome =
  let tbl = Hashtbl.create 16 and syms = ref [] and n = ref 0 in
  let id c =
    match Hashtbl.find_opt tbl c with
    | Some i -> i
    | None ->
        let i = !n in
        incr n;
        Hashtbl.add tbl c i;
        syms := c :: !syms;
        i
  in
  let irows =
    Array.of_list (List.map (fun t -> Array.of_list (List.map id t)) answers)
  in
  let syms = Array.of_list (List.rev !syms) in
  { irows; ioutcome = outcome; iconst = (fun i -> syms.(i)); isorted = None }

(* ------------------------------------------------------------------ *)
(* The search                                                           *)
(* ------------------------------------------------------------------ *)

(* Shared mutable state of one [run_interned] call: the emitted-answer
   count the budget's fact axis meters, and the per-disjunct candidate
   counter. *)
type state = {
  mutable emitted : int;
  mutable candidates : int;
}

let check_budget budget st =
  match Obs.Budget.check budget ~facts:st.emitted ~level:0 with
  | Some v -> raise (Cut v)
  | None -> ()

(* One disjunct, compiled: atoms as a catom array walked with in-place
   rotation (the unselected suffix keeps its relative order, as the
   previous List.filteri removal did), bindings in [d_benv], the answer
   tuple staged in [d_key] ([d_slots.(j) < 0] marks an answer position
   whose variable occurs in no atom — it ranges over the universe). *)
type dis = {
  d_atoms : Index.catom array;
  d_benv : int array;
  d_slots : int array;
  d_key : int array;
  d_arity : int;
}

let compile cx (q : Cq.t) =
  let p = Joiner.compile cx.cx_idx (Cq.atoms q) in
  let slots =
    Array.of_list
      (List.map
         (fun x ->
           match List.assoc x p.Joiner.vars with
           | s -> s
           | exception Not_found -> -1)
         (Cq.answer q))
  in
  let arity = Array.length slots in
  {
    d_atoms = p.atoms;
    d_benv = p.benv;
    d_slots = slots;
    d_key = Array.make arity 0;
    d_arity = arity;
  }

let enum_cq cx st budget (q : Cq.t) =
  let d = compile cx q in
  let idx = cx.cx_idx in
  let atoms = d.d_atoms and benv = d.d_benv and slots = d.d_slots in
  let n = Array.length atoms in
  let arity = d.d_arity in
  let on_candidate () = st.candidates <- st.candidates + 1 in
  let on_fail () = () in
  let emit () =
    if not (Hashtbl.mem cx.cx_seen d.d_key) then begin
      let key = Array.copy d.d_key in
      Hashtbl.add cx.cx_seen key ();
      push_row cx key;
      st.emitted <- st.emitted + 1;
      Obs.Probe.hit "engine.answer";
      check_budget budget st
    end
  in
  (* expand the answer positions whose variable is atom-free over the
     universe, in sorted-constant order, left to right *)
  let rec expand_free j =
    if j = arity then emit ()
    else if slots.(j) >= 0 then expand_free (j + 1)
    else begin
      let uni = cx.cx_uni in
      for k = 0 to Array.length uni - 1 do
        d.d_key.(j) <- uni.(k);
        expand_free (j + 1)
      done
    end
  in
  let unbound_answer () =
    let r = ref false in
    for j = 0 to arity - 1 do
      let s = slots.(j) in
      if s >= 0 && Array.unsafe_get benv s < 0 then r := true
    done;
    !r
  in
  let rec search lo =
    check_budget budget st;
    if unbound_answer () then begin
      (* expand the cheapest pending atom that still has an unbound
         variable; one exists — an unbound answer variable occurring in
         atoms always occurs in some pending atom (matched atoms bind
         their variables) *)
      let bi = ref (-1) and bc = ref 0 in
      for i = lo to n - 1 do
        let ca = atoms.(i) in
        if Index.catom_unbound ca ~benv then begin
          let c = Index.catom_count idx ca ~benv in
          if !bi < 0 || c < !bc then begin
            bi := i;
            bc := c
          end
        end
      done;
      assert (!bi >= 0);
      let sel = atoms.(!bi) in
      for j = !bi downto lo + 1 do
        atoms.(j) <- atoms.(j - 1)
      done;
      atoms.(lo) <- sel;
      ignore (Index.fold_catom idx sel ~benv ~on_candidate ~on_fail step (lo + 1));
      for j = lo to !bi - 1 do
        atoms.(j) <- atoms.(j + 1)
      done;
      atoms.(!bi) <- sel
    end
    else begin
      (* every atom-constrained answer variable is bound: the subtree
         below this node cannot change the answer tuple, so decide it
         here and prune *)
      let ok = ref true and free = ref false in
      for j = 0 to arity - 1 do
        let s = slots.(j) in
        if s < 0 then free := true
        else begin
          let cid = benv.(s) in
          d.d_key.(j) <- cid;
          if
            cid >= Bytes.length cx.cx_umask
            || Bytes.unsafe_get cx.cx_umask cid = '\000'
          then ok := false
        end
      done;
      if !ok && ((not !free) || Array.length cx.cx_uni > 0) then begin
        let all_seen = (not !free) && Hashtbl.mem cx.cx_seen d.d_key in
        if not all_seen then begin
          (* the remaining atoms are purely existential: one witness is
             enough *)
          let holds =
            lo >= n
            || Joiner.exists_compiled idx ~counters:cx.cx_counters atoms ~benv lo n
          in
          if holds then expand_free 0
        end
      end
    end
  and step lo =
    search lo;
    false
  in
  search 0

let with_child obs name f =
  match obs with
  | None -> f None
  | Some parent ->
      let sp = Obs.Span.enter parent name in
      Fun.protect ~finally:(fun () -> Obs.Span.exit sp) (fun () -> f (Some sp))

let run_interned ?budget ?obs cx disjuncts =
  let budget = Option.value budget ~default:Obs.Budget.unlimited in
  Hashtbl.clear cx.cx_seen;
  cx.cx_nrows <- 0;
  let st = { emitted = 0; candidates = 0 } in
  let outcome = ref Obs.Budget.Complete in
  (try
     List.iteri
       (fun i q ->
         with_child obs "disjunct" @@ fun sp ->
         let c0 = st.candidates and e0 = st.emitted in
         let finish () =
           match sp with
           | None -> ()
           | Some sp ->
               Obs.Span.set sp "disjunct" (Obs.Json.Int i);
               Obs.Span.set sp "candidates" (Obs.Json.Int (st.candidates - c0));
               Obs.Span.set sp "emitted" (Obs.Json.Int (st.emitted - e0))
         in
         (try enum_cq cx st budget q
          with Cut v ->
            finish ();
            (match sp with
            | Some sp ->
                Obs.Span.set sp "cut"
                  (Obs.Json.String (Fmt.str "%a" Obs.Budget.pp_violation v))
            | None -> ());
            raise (Cut v));
         finish ())
       disjuncts
   with Cut v -> outcome := Obs.Budget.Partial v);
  {
    irows = Array.sub cx.cx_rows 0 cx.cx_nrows;
    ioutcome = !outcome;
    iconst = cx_const cx;
    isorted = None;
  }

let ucq_interned ?budget ?obs cx u =
  run_interned ?budget ?obs cx (Ucq.disjuncts u)

(* ------------------------------------------------------------------ *)
(* Materializing API (unchanged shape)                                  *)
(* ------------------------------------------------------------------ *)

let ucq ?budget ?obs ~universe idx u =
  materialize (ucq_interned ?budget ?obs (ctx ~universe idx) u)
