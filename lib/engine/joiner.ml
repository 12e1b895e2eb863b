(** Index-aware backtracking homomorphism search; see the interface for
    the contract. Atom selection is cheapest-first by posting-list size,
    so selection costs O(arity) per pending atom instead of a candidate
    scan. *)

open Relational
open Relational.Term

type binding = Homomorphism.binding

let fold ?(injective = false) ?(init = VarMap.empty) atoms idx f acc =
  Obs.Probe.hit "engine.join";
  let m = Index.metrics idx in
  let c_candidates = Obs.Metrics.counter m "joiner.candidates" in
  let c_backtracks = Obs.Metrics.counter m "joiner.backtracks" in
  (* match the remaining atoms, cheapest first *)
  let rec search b pending acc =
    match pending with
    | [] -> f b acc
    | _ ->
        let best_i, best_a, _ =
          List.fold_left
            (fun (bi, ba, bc) (i, a) ->
              let c = Index.candidate_count idx a b in
              if c < bc then (i, a, c) else (bi, ba, bc))
            (-1, List.hd pending, max_int)
            (List.mapi (fun i a -> (i, a)) pending)
        in
        let rest = List.filteri (fun i _ -> i <> best_i) pending in
        (* interned candidate walk: same posting list, order and
           counter accounting as matching decoded tuples, minus the
           tuple materialization *)
        Index.fold_matches idx best_a b ~injective
          ~on_candidate:(fun () -> Obs.Metrics.incr c_candidates)
          ~on_fail:(fun () -> Obs.Metrics.incr c_backtracks)
          (fun b' acc -> search b' rest acc)
          acc
  in
  search init atoms acc

(* The compiled search over the segment [atoms.(lo..n)) with the
   bindings of [benv] as the initial assignment. Node-for-node identical
   to [fold] — same cheapest-first selection (first strictly-smaller
   wins), same pending order (in-place rotation keeps the unselected
   suffix in original relative order, as List.filteri did), same
   joiner.candidates/backtracks and index.probes accounting — but
   bindings live in [benv] and the recursion allocates nothing per node
   beyond one closure per call. [leaf ()] runs at every full match;
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

(* The [joiner.*] counters, resolved per search exactly where [fold]
   resolves them, so a run registers them iff it performs a search. *)
let counters idx =
  let m = Index.metrics idx in
  ( Obs.Metrics.counter m "joiner.candidates",
    Obs.Metrics.counter m "joiner.backtracks" )

let exists_compiled idx atoms ~benv lo n =
  let c_candidates, c_backtracks = counters idx in
  search_compiled idx
    ~on_candidate:(fun () -> Obs.Metrics.incr c_candidates)
    ~on_fail:(fun () -> Obs.Metrics.incr c_backtracks)
    atoms ~benv lo n
    (fun () -> true)

(* [fold] with a delta pivot, compiled: the pivot matches each delta key
   (one candidate each, one backtrack per mismatch, as the pivot of the
   uncompiled semi-naive step counted), the rest runs [search_compiled]
   to every full match. *)
let fold_delta idx ~pivot atoms ~benv delta f =
  Obs.Probe.hit "engine.join";
  let c_candidates, c_backtracks = counters idx in
  let on_candidate () = Obs.Metrics.incr c_candidates in
  let on_fail () = Obs.Metrics.incr c_backtracks in
  let n = Array.length atoms in
  let leaf () =
    f ();
    false
  in
  let rest () =
    ignore (search_compiled idx ~on_candidate ~on_fail atoms ~benv 0 n leaf)
  in
  List.iter
    (fun key ->
      on_candidate ();
      if not (Index.match_key pivot ~benv key rest) then on_fail ())
    delta

exception Found of binding

let find ?injective ?init atoms idx =
  try
    fold ?injective ?init atoms idx (fun b _ -> raise (Found b)) ();
    None
  with Found b -> Some b

let exists ?injective ?init atoms idx =
  Option.is_some (find ?injective ?init atoms idx)

let all ?injective ?init atoms idx =
  List.rev (fold ?injective ?init atoms idx (fun b acc -> b :: acc) [])

(* ------------------------------------------------------------------ *)
(* Query evaluation over an index                                       *)
(* ------------------------------------------------------------------ *)

let entails_cq idx q tuple =
  List.length tuple = Cq.arity q
  &&
  let init =
    List.fold_left2
      (fun acc x c -> VarMap.add x c acc)
      VarMap.empty (Cq.answer q) tuple
  in
  exists ~init (Cq.atoms q) idx

let holds_cq idx q = exists (Cq.atoms q) idx

let answers_cq idx q =
  fold (Cq.atoms q) idx
    (fun b acc -> List.map (fun x -> VarMap.find x b) (Cq.answer q) :: acc)
    []
  |> List.sort_uniq Stdlib.compare

let entails_ucq idx u tuple =
  List.exists (fun q -> entails_cq idx q tuple) (Ucq.disjuncts u)

let holds_ucq idx u = List.exists (holds_cq idx) (Ucq.disjuncts u)

let answers_ucq idx u =
  List.concat_map (answers_cq idx) (Ucq.disjuncts u)
  |> List.sort_uniq Stdlib.compare
