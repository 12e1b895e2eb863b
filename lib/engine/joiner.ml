(** Index-aware backtracking homomorphism search; see the interface for
    the contract. Atom selection is cheapest-first by posting-list size,
    so selection costs O(arity) per pending atom instead of a candidate
    scan. Every entry point runs the one compiled search below. *)

open Relational
open Relational.Term

type binding = Homomorphism.binding

type plan = {
  atoms : Index.catom array;
  benv : int array;
  vars : (string * int) list;
}

(* A query has a handful of variables, so the slot table is an
   association list: cheaper to build than a hash table, and [fold]
   walks it to build each binding map. *)
let compile idx atoms =
  let vars = ref [] in
  let slot x =
    match List.assoc x !vars with
    | s -> s
    | exception Not_found ->
        let s = List.length !vars in
        vars := (x, s) :: !vars;
        s
  in
  let atoms = Array.of_list (List.map (Index.compile_atom idx ~slot) atoms) in
  { atoms; benv = Array.make (max (List.length !vars) 1) (-1); vars = !vars }

(* The compiled search over the segment [atoms.(lo..n)) with the
   bindings of [benv] as the initial assignment. At every node the
   pending atom with the fewest candidates is matched next (first
   strictly-smaller wins); it is rotated to the front of the segment in
   place, which keeps the unselected suffix in its original relative
   order. Bindings live in [benv], so the recursion allocates nothing per
   node beyond one closure per call. [leaf ()] runs at every full match;
   returning [true] stops the search, which then returns [true]. Both
   the rotation and the bindings are undone before returning. An empty
   segment (a single-atom rule body) goes straight to [leaf] without
   building the recursion's closure. *)
let search_compiled idx ~on_candidate ~on_fail (atoms : Index.catom array)
    ~benv lo n leaf =
  if lo >= n then leaf ()
  else
    let rec sat lo =
      if lo >= n then leaf ()
      else begin
        let bi = ref lo and bc = ref max_int in
        for i = lo to n - 1 do
          let c = Index.catom_count idx atoms.(i) ~benv in
          if c < !bc then begin
            bi := i;
            bc := c
          end
        done;
        let sel = atoms.(!bi) in
        for j = !bi downto lo + 1 do
          atoms.(j) <- atoms.(j - 1)
        done;
        atoms.(lo) <- sel;
        let hit =
          Index.fold_catom idx sel ~benv ~on_candidate ~on_fail sat (lo + 1)
        in
        for j = lo to !bi - 1 do
          atoms.(j) <- atoms.(j + 1)
        done;
        atoms.(!bi) <- sel;
        hit
      end
    in
    sat lo

(* The [joiner.*] counters of a store, registered when first forced, so
   a run registers them iff it performs a search; forcing them also
   builds the two callbacks every search files its work with, once. *)
type filers = { on_candidate : unit -> unit; on_fail : unit -> unit }
type counters = filers Lazy.t

let counters idx : counters =
  lazy
    (let m = Index.metrics idx in
     let c_candidates = Obs.Metrics.counter m "joiner.candidates"
     and c_backtracks = Obs.Metrics.counter m "joiner.backtracks" in
     {
       on_candidate = (fun () -> Obs.Metrics.incr c_candidates);
       on_fail = (fun () -> Obs.Metrics.incr c_backtracks);
     })

(* [search_compiled] filing its candidates and backtracks against
   [counters]. *)
let search idx ~counters atoms ~benv lo n leaf =
  let { on_candidate; on_fail } = Lazy.force counters in
  search_compiled idx ~on_candidate ~on_fail atoms ~benv lo n leaf

let exists_compiled idx ~counters atoms ~benv lo n =
  search idx ~counters atoms ~benv lo n (fun () -> true)

let fold ~counters atoms idx f acc =
  Obs.Probe.hit "engine.join";
  let p = compile idx atoms in
  let st = Index.symtab idx in
  let bind b (x, s) = VarMap.add x (Symtab.extern st p.benv.(s)) b in
  let acc = ref acc in
  (* the binding map is built only at a full match *)
  let leaf () =
    acc := f (List.fold_left bind VarMap.empty p.vars) !acc;
    false
  in
  ignore (search idx ~counters p.atoms ~benv:p.benv 0 (Array.length p.atoms) leaf);
  !acc

(* [fold] with a delta pivot: the pivot matches each delta fact (one
   candidate each, one backtrack per mismatch), the rest runs
   [search_compiled] to every full match. A one-atom body has no rest:
   the pivot's match is the full match, and the call allocates
   nothing. *)
let fold_delta idx ~counters ~pivot atoms ~benv delta ~lo ~hi f =
  Obs.Probe.hit "engine.join";
  let { on_candidate; on_fail } = Lazy.force counters in
  let n = Array.length atoms in
  let rest =
    if n = 0 then f
    else
      let leaf () =
        f ();
        false
      in
      fun () -> ignore (search_compiled idx ~on_candidate ~on_fail atoms ~benv 0 n leaf)
  in
  for k = lo to hi - 1 do
    on_candidate ();
    if not (Index.match_handle idx pivot ~benv (Vec.get delta k) rest) then on_fail ()
  done

(* ------------------------------------------------------------------ *)
(* Query evaluation over an index                                       *)
(* ------------------------------------------------------------------ *)

(* The candidate tuple is substituted into the atoms (a repeated answer
   variable takes its last constant), so a constant the store has never
   seen compiles to a never-matching cell. *)
let entails ~counters idx q tuple =
  List.length tuple = Cq.arity q
  &&
  let sub =
    List.fold_left2
      (fun acc x c -> VarMap.add x (Const c) acc)
      VarMap.empty (Cq.answer q) tuple
  in
  Obs.Probe.hit "engine.join";
  let p = compile idx (List.map (Atom.apply sub) (Cq.atoms q)) in
  exists_compiled idx ~counters p.atoms ~benv:p.benv 0 (Array.length p.atoms)

let entails_cq idx q tuple = entails ~counters:(counters idx) idx q tuple

let entails_ucq idx u tuple =
  let counters = counters idx in
  List.exists (fun q -> entails ~counters idx q tuple) (Ucq.disjuncts u)
