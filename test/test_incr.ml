(* lib/incr: incremental chase maintenance.

   The load-bearing property is differential: a maintained store
   subjected to a random interleaved insert/delete log must hold exactly
   the instance — facts *and* s-levels — that a fresh oblivious chase of
   the final base database produces, up to null renaming. The generator
   pool here is weakly acyclic (unlike [Generators.tgd_pool], whose
   A/S loop never terminates), so every store saturates without a level
   cut and maintenance is defined.

   Unit tests pin the corner cases the property could miss with small
   sample sizes: deleting a fact that stays derivable, a delete
   cascading through existential nulls, checkpoint canonicity, and the
   [Engine.Index.remove] primitive. *)

open Relational
module Tgd = Tgds.Tgd

let v = Term.var
let atom = Generators.atom
let fact = Generators.fact
let tgd body head = Tgd.make ~body ~head

(* ------------------------------------------------------------------ *)
(* A weakly-acyclic guarded pool (terminating oblivious chase)          *)
(* ------------------------------------------------------------------ *)

let wa_pool =
  [|
    (* existential *)
    tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
    (* flip *)
    tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "T" [ v "y"; v "x" ] ];
    (* frontier projection *)
    tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "B" [ v "x" ] ];
    (* existential chain off B *)
    tgd [ atom "B" [ v "x" ] ] [ atom "U" [ v "x"; v "z" ] ];
    tgd [ atom "U" [ v "x"; v "z" ] ] [ atom "V" [ v "z" ] ];
    (* guarded join *)
    tgd [ atom "T" [ v "x"; v "y" ]; atom "S" [ v "y"; v "x" ] ] [ atom "B" [ v "y" ] ];
  |]

let gen_sigma =
  QCheck.Gen.(
    map
      (List.map (Array.get wa_pool))
      (list_size (int_range 1 5) (int_range 0 (Array.length wa_pool - 1))))

(* Base facts over A/B/S/T and the constants {a,b,c} — the same
   distribution mutations draw from, so logs revisit earlier facts. *)
let gen_base_fact =
  QCheck.Gen.(
    let gc = map (List.nth [ "a"; "b"; "c" ]) (int_range 0 2) in
    let* p = int_range 0 3 in
    match p with
    | 0 ->
        let* a = gc in
        return (fact "A" [ a ])
    | 1 ->
        let* a = gc in
        return (fact "B" [ a ])
    | 2 ->
        let* a = gc and* b = gc in
        return (fact "S" [ a; b ])
    | _ ->
        let* a = gc and* b = gc in
        return (fact "T" [ a; b ]))

let gen_db =
  QCheck.Gen.(map Instance.of_facts (list_size (int_range 1 5) gen_base_fact))

let gen_log =
  QCheck.Gen.(list_size (int_range 0 8) (pair bool gen_base_fact))

let print_case (sigma, db, ops) =
  Fmt.str "Σ=%a D=%a log=%a" (Fmt.list Tgd.pp) sigma Instance.pp db
    (Fmt.list (Fmt.pair Fmt.bool Fact.pp))
    ops

let arb_case =
  QCheck.make ~print:print_case
    QCheck.Gen.(triple gen_sigma gen_db gen_log)

(* ------------------------------------------------------------------ *)
(* Differential properties                                              *)
(* ------------------------------------------------------------------ *)

let apply_log store ops =
  List.iter
    (fun (add, f) ->
      ignore (Incr.apply store (if add then Incr.Insert f else Incr.Delete f)))
    ops

let replay_base db ops =
  List.fold_left
    (fun b (add, f) ->
      if add then Instance.add_fact f b
      else Instance.diff b (Instance.of_facts [ f ]))
    db ops

let store_facts_levels store =
  (Incr.checkpoint store).Engine.Saturate.snap_facts

(* maintained store ≡ fresh chase of the replayed base, facts and
   s-levels both, modulo a bijection on null ids *)
let prop_differential (sigma, db, ops) =
  Term.reset_nulls ();
  let store = Incr.create sigma db in
  apply_log store ops;
  let final = replay_base db ops in
  Term.reset_nulls ();
  let fresh = Tgds.Chase.run ~policy:Tgds.Chase.Oblivious sigma final in
  Instance.equal (Incr.base store) final
  && Generators.equal_upto_nulls (store_facts_levels store)
       (Generators.facts_levels fresh)

(* a maintained checkpoint resumes as a no-op continuation holding the
   same instance *)
let prop_checkpoint (sigma, db, ops) =
  Term.reset_nulls ();
  let store = Incr.create sigma db in
  apply_log store ops;
  let snap = Incr.checkpoint store in
  let r = Tgds.Chase.resume sigma snap in
  Tgds.Chase.saturated r
  && Instance.equal (Tgds.Chase.instance r) (Incr.instance store)

(* the crash-recovery invariant behind the WAL: capture an exact image at
   any cut of the log, rebuild from it, replay the suffix — the result
   must equal the uninterrupted run *exactly* (facts with the same null
   ids in the same storage order, s-levels, ledger liveness, counters),
   not merely up to renaming. [Incr.image] equality covers storage order,
   levels, the live ledger, the null counter, and the metrics in one
   comparison; instance equality and per-fact support counts pin the
   observable side independently. *)
let prop_image_split (sigma, db, ops, cut) =
  Term.reset_nulls ();
  let full = Incr.create sigma db in
  apply_log full ops;
  let full_image = Incr.image full in
  Term.reset_nulls ();
  let k = cut mod (List.length ops + 1) in
  let prefix = List.filteri (fun i _ -> i < k) ops in
  let suffix = List.filteri (fun i _ -> i >= k) ops in
  let store = Incr.create sigma db in
  apply_log store prefix;
  let rebuilt = Incr.of_image sigma (Incr.image store) in
  apply_log rebuilt suffix;
  Incr.image rebuilt = full_image
  && Instance.equal (Incr.instance rebuilt) (Incr.instance full)
  && List.for_all
       (fun (f, _) -> Incr.support_count rebuilt f = Incr.support_count full f)
       full_image.Incr.im_facts

let arb_split_case =
  QCheck.make
    ~print:(fun (sigma, db, ops, cut) ->
      Fmt.str "%s cut=%d" (print_case (sigma, db, ops)) cut)
    QCheck.Gen.(quad gen_sigma gen_db gen_log (int_range 0 1000))

(* The ledger after every mutation of a log: its own invariants hold
   ([Incr.audit]: every live derivation linked from each of its body and
   out facts, no freed block reachable, no ledger state on a free row),
   each fact's support count equals a recount over the image's ledger,
   and the image survives [of_image] unchanged. The pool adds to
   [wa_pool] rules whose two body or two head atoms can ground to one
   fact, and one whose head is its body, so repeated and self-supporting
   edges are exercised. *)
let ledger_pool =
  Array.append wa_pool
    [|
      tgd [ atom "S" [ v "x"; v "y" ]; atom "S" [ v "y"; v "x" ] ] [ atom "B" [ v "x" ] ];
      tgd [ atom "A" [ v "x" ] ] [ atom "B" [ v "x" ]; atom "B" [ v "x" ] ];
      tgd [ atom "B" [ v "x" ] ] [ atom "B" [ v "x" ] ];
    |]

let arb_ledger_case =
  QCheck.make ~print:print_case
    QCheck.Gen.(
      triple
        (map
           (List.map (Array.get ledger_pool))
           (list_size (int_range 1 6) (int_range 0 (Array.length ledger_pool - 1))))
        gen_db gen_log)

let ledger_sound sigma store =
  let im = Incr.image store in
  let recount f =
    List.length (List.filter (fun (_, _, outs) -> List.mem f outs) im.Incr.im_ledger)
  in
  Incr.audit store = []
  && List.for_all (fun (f, _) -> Incr.support_count store f = recount f) im.Incr.im_facts
  && Incr.image (Incr.of_image sigma im) = im

let prop_ledger (sigma, db, ops) =
  Term.reset_nulls ();
  let store = Incr.create sigma db in
  ledger_sound sigma store
  && List.for_all
       (fun (add, f) ->
         ignore (Incr.apply store (if add then Incr.Insert f else Incr.Delete f));
         ledger_sound sigma store)
       ops

let qcheck ?(count = 200) name prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb_case prop)

(* ------------------------------------------------------------------ *)
(* Corner units                                                         *)
(* ------------------------------------------------------------------ *)

(* deleting a fact that is also derived keeps it in the store (DRed
   phase 2 re-derives it) while removing it from the base *)
let test_delete_still_derivable () =
  let sigma = [ tgd [ atom "A" [ v "x" ] ] [ atom "B" [ v "x" ] ] ] in
  let db = Instance.of_facts [ fact "A" [ "a" ]; fact "B" [ "a" ] ] in
  let store = Incr.create sigma db in
  let e = Incr.delete store (fact "B" [ "a" ]) in
  Alcotest.(check bool) "not a no-op" false e.Incr.e_noop;
  Alcotest.(check int) "nothing leaves the store" 0 e.Incr.e_deleted;
  Alcotest.(check bool)
    "B(a) still present" true
    (Instance.mem (fact "B" [ "a" ]) (Incr.instance store));
  Alcotest.(check int) "base shrank" 1 (Incr.base_size store);
  Alcotest.(check int) "store unchanged" 2 (Incr.size store)

(* a delete whose cascade runs through invented nulls: retracting the
   base fact must garbage-collect the whole existential subtree *)
let test_delete_null_cascade () =
  let sigma =
    [
      tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
      tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "B" [ v "y" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "A" [ "a" ] ] in
  let store = Incr.create sigma db in
  Alcotest.(check int) "chased to 3 facts" 3 (Incr.size store);
  let e = Incr.delete store (fact "A" [ "a" ]) in
  Alcotest.(check int) "overdeleted the subtree" 3 e.Incr.e_overdeleted;
  Alcotest.(check int) "nothing re-derivable" 0 e.Incr.e_rederived;
  Alcotest.(check int) "all three gone" 3 e.Incr.e_deleted;
  Alcotest.(check int) "store empty" 0 (Incr.size store)

(* inserting a fact the chase already invented-around: the delta fixpoint
   only fires what the new fact newly enables *)
let test_insert_absorbed () =
  let sigma = [ tgd [ atom "A" [ v "x" ] ] [ atom "B" [ v "x" ] ] ] in
  let db = Instance.of_facts [ fact "A" [ "a" ] ] in
  let store = Incr.create sigma db in
  let e = Incr.insert store (fact "B" [ "a" ]) in
  Alcotest.(check bool) "not a no-op (base grew)" false e.Incr.e_noop;
  Alcotest.(check int) "no new facts" 0 e.Incr.e_repaired;
  Alcotest.(check int) "base now 2" 2 (Incr.base_size store);
  let e2 = Incr.insert store (fact "B" [ "a" ]) in
  Alcotest.(check bool) "second time is a no-op" true e2.Incr.e_noop

(* the maintained checkpoint is canonical: identical levels to a fresh
   chase of the same final base, and [of_checkpoint] round-trips *)
let test_checkpoint_canonical () =
  let sigma =
    [
      tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
      tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "B" [ v "y" ] ];
    ]
  in
  Term.reset_nulls ();
  let store =
    Incr.create sigma (Instance.of_facts [ fact "A" [ "a" ]; fact "A" [ "b" ] ])
  in
  ignore (Incr.insert store (fact "A" [ "c" ]));
  ignore (Incr.delete store (fact "A" [ "a" ]));
  let snap = Incr.checkpoint store in
  Term.reset_nulls ();
  let fresh =
    Tgds.Chase.run ~policy:Tgds.Chase.Oblivious sigma
      (Instance.of_facts [ fact "A" [ "b" ]; fact "A" [ "c" ] ])
  in
  Alcotest.(check bool)
    "levels match a fresh chase" true
    (Generators.equal_upto_nulls snap.Engine.Saturate.snap_facts
       (Generators.facts_levels fresh));
  let store2 = Incr.of_checkpoint sigma snap in
  Alcotest.(check bool)
    "of_checkpoint rebuilds the store" true
    (Generators.equal_upto_nulls
       (store_facts_levels store2)
       snap.Engine.Saturate.snap_facts);
  let e = Incr.delete store2 (fact "A" [ "b" ]) in
  Alcotest.(check bool) "rebuilt store accepts mutations" false e.Incr.e_noop

(* the Index.remove primitive: membership, per-position buckets and the
   index.removes counter *)
let test_index_remove () =
  let idx = Engine.Index.create () in
  let f = fact "S" [ "a"; "b" ] in
  Alcotest.(check bool) "insert fresh" true (Engine.Index.insert f idx);
  Alcotest.(check bool) "remove present" true (Engine.Index.remove f idx);
  Alcotest.(check bool) "membership gone" false (Engine.Index.mem f idx);
  Alcotest.(check bool) "remove absent" false (Engine.Index.remove f idx);
  Alcotest.(check bool) "re-insert fresh again" true (Engine.Index.insert f idx);
  Alcotest.(check int)
    "index.removes counted once" 1
    (Obs.Metrics.count (Engine.Index.metrics idx) "index.removes")

(* Insert/delete churn of one fact whose derivations invent nulls: dead
   derivations' blocks and freed rows are reused, so the ledger's size
   after 21 cycles is its size after 1. *)
let test_ledger_churn () =
  let sigma =
    [
      tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
      tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "B" [ v "y" ] ];
      tgd [ atom "S" [ v "x"; v "y" ]; atom "B" [ v "y" ] ] [ atom "T" [ v "y"; v "x" ] ];
    ]
  in
  let store = Incr.create sigma (Instance.of_facts [ fact "A" [ "a" ] ]) in
  let cycle () =
    ignore (Incr.insert store (fact "A" [ "b" ]));
    ignore (Incr.delete store (fact "A" [ "b" ]))
  in
  cycle ();
  let words = Incr.ledger_words store in
  for _ = 1 to 20 do
    cycle ()
  done;
  Alcotest.(check int) "ledger words after 21 cycles are those after 1" words
    (Incr.ledger_words store);
  Alcotest.(check (list string)) "ledger invariants" [] (Incr.audit store)

(* A re-derived fact can come back in another row than the one it left,
   so its ledger state follows it to its new handle: here D(a) and D(b)
   are both over-deleted and one of them is re-derived from Q, in
   whichever row the store hands out. Deleting Q afterwards must then
   find and retract that fact. Both orientations run, so one of them
   moves the fact whatever the row order. *)
let test_rederived_moves () =
  let sigma =
    [
      tgd [ atom "P" [ v "x"; v "y" ] ] [ atom "D" [ v "x" ] ];
      tgd [ atom "P" [ v "x"; v "y" ] ] [ atom "D" [ v "y" ] ];
      tgd [ atom "Q" [ v "x" ] ] [ atom "D" [ v "x" ] ];
    ]
  in
  List.iter
    (fun c ->
      let q = fact "Q" [ c ] in
      let store = Incr.create sigma (Instance.of_facts [ fact "P" [ "a"; "b" ]; q ]) in
      let e = Incr.delete store (fact "P" [ "a"; "b" ]) in
      Alcotest.(check int) (c ^ ": one fact re-derived") 1 e.Incr.e_rederived;
      Alcotest.(check (list string)) (c ^ ": ledger invariants") [] (Incr.audit store);
      Alcotest.(check int) (c ^ ": D supported once") 1
        (Incr.support_count store (fact "D" [ c ]));
      ignore (Incr.delete store q);
      Alcotest.(check int) (c ^ ": store empty") 0 (Incr.size store);
      Alcotest.(check (list string)) (c ^ ": ledger invariants after") []
        (Incr.audit store))
    [ "a"; "b" ]

(* unsaturated stores refuse mutations instead of repairing nonsense *)
let test_unsaturated_refused () =
  let sigma =
    [ tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "S" [ v "y"; v "z" ] ] ]
  in
  let store =
    Incr.create ~max_level:2 sigma (Instance.of_facts [ fact "S" [ "a"; "b" ] ])
  in
  Alcotest.(check bool) "store unsaturated" false (Incr.saturated store);
  Alcotest.check_raises "insert refused"
    (Invalid_argument "Incr: store is not saturated") (fun () ->
      ignore (Incr.insert store (fact "S" [ "b"; "a" ])))

(* The maintenance envelope on lubm-40, modelled on the saturation
   envelope of test_engine: the store size and the ledger length are
   pinned, and the minor words per chased fact of building the store
   ([Incr.create]: the chase plus the derivation ledger) and of imaging
   it ([Incr.image]) must stay inside fixed envelopes of ~1.2x the
   measured 13.9 and 46.4. [Incr.create] read 28.7 while the chase took
   its first delta from the instance's interned keys and the base flags
   were set by interning every fact again after it, 50.4 before the
   chase stopped boxing keys, 106 with the ledger of boxed records and
   key arrays the columnar one replaced, and 216 with the ledger of
   boxed facts before it. The minor heap is flushed before each second
   reading so the counts are exact. *)
let test_maintenance_envelope () =
  let sigma, db = Guarded_core.Workload.lubm ~universities:40 () in
  let minor_per_fact ~facts f =
    Gc.full_major ();
    let s0 = Gc.quick_stat () in
    let x = f () in
    Gc.minor ();
    let s1 = Gc.quick_stat () in
    (x, (s1.Gc.minor_words -. s0.Gc.minor_words) /. float_of_int facts)
  in
  Term.reset_nulls ();
  let store, create =
    minor_per_fact ~facts:6160 (fun () -> Incr.create sigma db)
  in
  Alcotest.(check int) "store size" 6160 (Incr.size store);
  let im, image = minor_per_fact ~facts:6160 (fun () -> Incr.image store) in
  Alcotest.(check int) "ledger entries" 5440 (List.length im.Incr.im_ledger);
  Alcotest.(check bool)
    (Fmt.str "Incr.create minor words per fact within envelope (measured %.1f)"
       create)
    true (create < 16.7);
  Alcotest.(check bool)
    (Fmt.str "Incr.image minor words per fact within envelope (measured %.1f)"
       image)
    true (image < 59.)

let () =
  Alcotest.run "incr"
    [
      ( "differential",
        [
          qcheck "maintained store = fresh chase of final base"
            prop_differential;
          qcheck ~count:100 "maintained checkpoint resumes as a no-op"
            prop_checkpoint;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:200
               ~name:"image at any cut + suffix replay = uninterrupted run"
               arb_split_case prop_image_split);
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:200
               ~name:"ledger sound after every mutation" arb_ledger_case
               prop_ledger);
        ] );
      ( "corners",
        [
          Alcotest.test_case "delete of a still-derivable fact" `Quick
            test_delete_still_derivable;
          Alcotest.test_case "delete cascading through nulls" `Quick
            test_delete_null_cascade;
          Alcotest.test_case "insert absorbed by the chase" `Quick
            test_insert_absorbed;
          Alcotest.test_case "checkpoint is canonical" `Quick
            test_checkpoint_canonical;
          Alcotest.test_case "Index.remove round-trip" `Quick test_index_remove;
          Alcotest.test_case "unsaturated store refuses mutations" `Quick
            test_unsaturated_refused;
          Alcotest.test_case "ledger churn keeps its size" `Quick
            test_ledger_churn;
          Alcotest.test_case "a re-derived fact moves rows" `Quick
            test_rederived_moves;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "maintenance envelope" `Quick
            test_maintenance_envelope;
        ] );
    ]
