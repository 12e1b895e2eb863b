(* Equivalence harness for the fact-store substrate.

   The store under [lib/engine] is the load-bearing representation four
   consumers share (Chase, Enumerate, Incr, Resil); this suite pins its
   *observable* behaviour so the representation can change underneath
   without anything noticing. The contract, over random guarded
   programs × random databases:

   - fresh chase: facts with their exact null ids and Lemma A.1
     s-levels, every clean-boundary checkpoint's bytes, the counter
     stats (up to the timing histograms) and the enumerated answer sets
     are byte-identical across reruns of the indexed engine in one
     process (no state leaks from one run into the next);
   - resume: continuing any checkpointed boundary is byte-identical
     across reruns;
   - serve: a maintained store (initial chase, then a mutation log)
     holds byte-identical facts, effects, checkpoint and counters across
     reruns;
   - the naive oracle (Naive_chase) agrees with the indexed engine up
     to null renaming, and exactly on answer sets (answers are
     null-free).

   The fixed-oracle cases additionally embed literals produced by the
   pre-columnar hash-of-lists store, so a representation change that
   drifts any observable fails here before it reaches CI's golden
   sweep. *)

open Relational
module Chase = Tgds.Chase

let check = Alcotest.(check bool)
let v = Generators.v
let atom = Generators.atom
let fact = Generators.fact
let tgd = Generators.tgd

(* The stats report is deterministic up to its timing tail; comparisons
   cut at the histograms key (which also drops the span). *)
let cut_at_histograms s =
  let marker = {|,"histograms":|} in
  let n = String.length s and m = String.length marker in
  let rec find i =
    if i + m > n then s
    else if String.sub s i m = marker then String.sub s 0 i
    else find (i + 1)
  in
  find 0

(* ------------------------------------------------------------------ *)
(* Fresh chase: everything observable about one budgeted run            *)
(* ------------------------------------------------------------------ *)

(* Facts with null ids and s-levels, saturation/outcome, every
   clean-boundary checkpoint serialised, the stats report up to the
   timing tail, and the answer sets of the fixed query pool. *)
let chase_observables ~policy sigma db =
  Term.reset_nulls ();
  let snaps = ref [] in
  let r =
    Chase.run ~policy ~budget:(Generators.resil_budget ())
      ~on_pass:(fun ~level:_ ~saturated:_ take -> snaps := take () :: !snaps)
      sigma db
  in
  let stats =
    cut_at_histograms
      (Obs.Json.to_string (Obs.Report.to_json (Chase.report ~name:"store" r)))
  in
  let trace =
    List.rev_map
      (fun s -> Obs.Json.to_string (Resil.Checkpoint.to_json s))
      !snaps
  in
  let answers =
    List.map
      (fun q ->
        (Engine.Enumerate.ucq ~universe:(Instance.dom db) (Chase.index r) q)
          .Engine.Enumerate.answers)
      Generators.queries
  in
  ( List.sort Stdlib.compare (Generators.facts_levels r),
    Chase.saturated r,
    Chase.max_level r,
    Chase.outcome r,
    stats,
    trace,
    answers )

let print_case (sigma, db, policy) =
  Fmt.str "%s policy=%s"
    (Generators.print_sigma_db (sigma, db))
    (match policy with
    | Chase.Oblivious -> "oblivious"
    | Chase.Restricted -> "restricted")

let arb_case =
  QCheck.make ~print:print_case
    QCheck.Gen.(
      let* sigma = Generators.gen_sigma
      and* db = Generators.gen_db
      and* policy = Generators.gen_policy in
      return (sigma, db, policy))

let prop_fresh_chase_byte_identical =
  QCheck.Test.make
    ~name:
      "store: fresh chase byte-identical across reruns (facts, levels, \
       checkpoints, stats, answers)"
    ~count:50 arb_case (fun (sigma, db, policy) ->
      let base = chase_observables ~policy sigma db in
      chase_observables ~policy sigma db = base)

let prop_naive_equivalent =
  QCheck.Test.make
    ~name:"store: Naive ≍ family up to null renaming, exactly on answers"
    ~count:50 arb_case (fun (sigma, db, policy) ->
      let budget () = Generators.resil_budget () in
      Term.reset_nulls ();
      let naive = Naive_chase.run ~policy ~budget:(budget ()) sigma db in
      let naive_answers =
        List.map
          (fun q ->
            (Engine.Enumerate.ucq ~universe:(Instance.dom db)
               (Engine.Index.of_instance naive.Naive_chase.instance)
               q)
              .Engine.Enumerate.answers)
          Generators.queries
      in
      Term.reset_nulls ();
      let idx = Chase.run ~policy ~budget:(budget ()) sigma db in
      let idx_answers =
        List.map
          (fun q ->
            (Engine.Enumerate.ucq ~universe:(Instance.dom db) (Chase.index idx)
               q)
              .Engine.Enumerate.answers)
          Generators.queries
      in
      Generators.observed_equivalent
        (Generators.observe_oracle naive)
        (Generators.observe idx)
      && naive_answers = idx_answers)

(* ------------------------------------------------------------------ *)
(* Resume: any boundary                                                 *)
(* ------------------------------------------------------------------ *)

let resume_observables sigma snap =
  let r = Chase.resume ~budget:(Generators.resil_budget ()) sigma snap in
  let stats =
    cut_at_histograms
      (Obs.Json.to_string (Obs.Report.to_json (Chase.report ~name:"store" r)))
  in
  ( List.sort Stdlib.compare (Generators.facts_levels r),
    Chase.saturated r,
    Chase.max_level r,
    Chase.outcome r,
    stats )

let arb_resume_case =
  QCheck.make
    ~print:(fun (case, pick) -> Fmt.str "%s pick=%d" (print_case case) pick)
    QCheck.Gen.(
      let* case = QCheck.gen arb_case and* pick = int_range 0 1000 in
      return (case, pick))

let prop_resume_byte_identical =
  QCheck.Test.make
    ~name:"store: resume from any boundary byte-identical across reruns"
    ~count:40 arb_resume_case (fun ((sigma, db, policy), pick) ->
      let snaps = Generators.chase_snapshots ~policy sigma db in
      let snap = List.nth snaps (pick mod List.length snaps) in
      let base = resume_observables sigma snap in
      resume_observables sigma snap = base)

(* ------------------------------------------------------------------ *)
(* Serve: a maintained store under a mutation log                       *)
(* ------------------------------------------------------------------ *)

(* Weakly-acyclic guarded sigma with existentials: the oblivious chase
   always terminates, so the maintained store accepts mutations, and
   nulls exercise the delete cascade. *)
let wa_sigma =
  [
    tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
    tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "T" [ v "y"; v "x" ] ];
    tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "B" [ v "x" ] ];
    tgd [ atom "B" [ v "x" ] ] [ atom "U" [ v "x"; v "z" ] ];
  ]

let gen_wa_fact =
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

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 6)
      (map
         (fun (add, f) -> if add then Incr.Insert f else Incr.Delete f)
         (pair bool gen_wa_fact)))

let print_op = function
  | Incr.Insert f -> Fmt.str "+%a" Fact.pp f
  | Incr.Delete f -> Fmt.str "-%a" Fact.pp f

let serve_observables db ops =
  Term.reset_nulls ();
  let t = Incr.create wa_sigma db in
  let effects = List.map (fun op -> Incr.apply t op) ops in
  let facts = List.sort Stdlib.compare (Instance.facts (Incr.instance t)) in
  let ck = Obs.Json.to_string (Resil.Checkpoint.to_json (Incr.checkpoint t)) in
  let counters =
    List.sort Stdlib.compare (Obs.Metrics.counters (Incr.metrics t))
  in
  (facts, effects, ck, counters)

let arb_serve_case =
  QCheck.make
    ~print:(fun (db, ops) ->
      Fmt.str "D=%a ops=[%s]" Instance.pp db
        (String.concat "; " (List.map print_op ops)))
    QCheck.Gen.(
      let* db = Generators.gen_db and* ops = gen_ops in
      return (db, ops))

let prop_serve_byte_identical =
  QCheck.Test.make
    ~name:
      "store: serve (maintained store) byte-identical across reruns \
       (facts, effects, checkpoint, counters)"
    ~count:40 arb_serve_case (fun (db, ops) ->
      let base = serve_observables db ops in
      serve_observables db ops = base)

(* ------------------------------------------------------------------ *)
(* Fixed oracles: literals pinned against the pre-columnar store        *)
(* ------------------------------------------------------------------ *)

(* Σ = {A(x) → ∃y S(x,y); S(x,y) → A(y)}: non-terminating, cut by the
   level budget — exercises null invention at every level. *)
let unit_sigma =
  [
    tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
    tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "A" [ v "y" ] ];
  ]

let unit_db = Instance.of_facts [ fact "A" [ "a" ] ]

let render_facts fl =
  String.concat "\n"
    (List.map (fun (f, l) -> Fmt.str "%d %a" l Fact.pp f) fl)

let pinned ~policy sigma db =
  let fl, saturated, max_level, _, stats, trace, _ =
    chase_observables ~policy sigma db
  in
  ( Fmt.str "saturated=%b max_level=%d\n%s" saturated max_level
      (render_facts fl),
    (match List.rev trace with last :: _ -> last | [] -> ""),
    stats )

(* The expected literals below were produced by the hash-of-lists store
   (PR 6 tree) and must never drift: null ids, levels, checkpoint bytes
   and counters are all representation-observable. *)
let test_pinned_oblivious () =
  let got_facts, got_ck, got_stats =
    pinned ~policy:Chase.Oblivious unit_sigma unit_db
  in
  Alcotest.(check string) "facts/levels literal"
    "saturated=false max_level=6\n\
     0 A(a)\n\
     2 A(_:n1)\n\
     4 A(_:n2)\n\
     6 A(_:n3)\n\
     1 S(a,_:n1)\n\
     3 S(_:n1,_:n2)\n\
     5 S(_:n2,_:n3)"
    got_facts;
  Alcotest.(check string) "final checkpoint literal"
    {|{"schema":"guarded-chase-checkpoint","version":1,"engine":"indexed","policy":"oblivious","level":6,"saturated":false,"null_count":3,"triggers_fired":6,"triggers_dismissed":0,"counters":{"index.duplicates":0,"index.inserts":7,"index.probes":0,"index.removes":0,"joiner.backtracks":0,"joiner.candidates":6},"facts":[{"p":"A","l":0,"a":["a"]},{"p":"S","l":1,"a":["a",{"n":1}]},{"p":"A","l":2,"a":[{"n":1}]},{"p":"S","l":3,"a":[{"n":1},{"n":2}]},{"p":"A","l":4,"a":[{"n":2}]},{"p":"S","l":5,"a":[{"n":2},{"n":3}]},{"p":"A","l":6,"a":[{"n":3}]}]}|}
    got_ck;
  Alcotest.(check string) "stats literal"
    {|{"name":"store","outcome":{"status":"partial","reason":"max_levels","limit":6},"saturated":false,"max_level":6,"facts":7,"facts_per_level":[1,1,1,1,1,1],"triggers_fired":6,"triggers_dismissed":0,"counters":{"index.duplicates":0,"index.inserts":7,"index.probes":0,"index.removes":0,"joiner.backtracks":0,"joiner.candidates":6}|}
    got_stats

let guarded_sigma =
  [
    tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
    tgd
      [ atom "S" [ v "x"; v "y" ]; atom "A" [ v "x" ] ]
      [ atom "B" [ v "x" ] ];
    tgd [ atom "B" [ v "x" ] ] [ atom "T" [ v "x"; v "z" ] ];
  ]

let guarded_db = Instance.of_facts [ fact "A" [ "a" ]; fact "S" [ "a"; "b" ] ]

let test_pinned_restricted () =
  let got_facts, got_ck, got_stats =
    pinned ~policy:Chase.Restricted guarded_sigma guarded_db
  in
  Alcotest.(check string) "facts/levels literal"
    "saturated=true max_level=2\n0 A(a)\n1 B(a)\n0 S(a,b)\n2 T(a,_:n1)"
    got_facts;
  Alcotest.(check string) "final checkpoint literal"
    {|{"schema":"guarded-chase-checkpoint","version":1,"engine":"indexed","policy":"restricted","level":2,"saturated":true,"null_count":1,"triggers_fired":2,"triggers_dismissed":1,"counters":{"index.duplicates":0,"index.inserts":4,"index.probes":5,"index.removes":0,"joiner.backtracks":0,"joiner.candidates":7},"facts":[{"p":"A","l":0,"a":["a"]},{"p":"S","l":0,"a":["a","b"]},{"p":"B","l":1,"a":["a"]},{"p":"T","l":2,"a":["a",{"n":1}]}]}|}
    got_ck;
  Alcotest.(check string) "stats literal"
    {|{"name":"store","outcome":{"status":"complete"},"saturated":true,"max_level":2,"facts":4,"facts_per_level":[1,1],"triggers_fired":2,"triggers_dismissed":1,"counters":{"index.duplicates":0,"index.inserts":4,"index.probes":5,"index.removes":0,"joiner.backtracks":0,"joiner.candidates":7}|}
    got_stats

(* ------------------------------------------------------------------ *)
(* Store-level semantics the consumers rely on                          *)
(* ------------------------------------------------------------------ *)

(* Posting lists are most-recently-inserted-first, and [Index.remove]
   prunes them in place preserving that order — the discovery order of
   the chase (hence null ids) hangs off this. *)
let test_posting_order_and_remove () =
  let open Engine in
  let f cs = Fact.make "S" (List.map (fun c -> Term.Named c) cs) in
  let idx = Index.create () in
  List.iter
    (fun t -> ignore (Index.insert (f t) idx))
    [ [ "a"; "b" ]; [ "c"; "b" ]; [ "d"; "b" ]; [ "d"; "e" ] ];
  (* a one-atom fold walks the posting list (or, with no bound
     position, the relation) most-recent-first *)
  let scan args =
    Joiner.fold ~counters:(Joiner.counters idx) [ Atom.make "S" args ] idx
      (fun b acc ->
        List.map
          (function
            | Term.Var x -> (
                match Term.VarMap.find x b with Term.Named s -> s | _ -> "?")
            | Term.Const (Term.Named s) -> s
            | Term.Const _ -> "?")
          args
        :: acc)
      []
    |> List.rev
  in
  let posting_b () = scan [ Term.var "x"; Term.const "b" ] in
  Alcotest.(check (list (list string)))
    "posting (S,1,b) most-recent-first"
    [ [ "d"; "b" ]; [ "c"; "b" ]; [ "a"; "b" ] ]
    (posting_b ());
  Alcotest.(check (list (list string)))
    "relation scan most-recent-first"
    [ [ "d"; "e" ]; [ "d"; "b" ]; [ "c"; "b" ]; [ "a"; "b" ] ]
    (scan [ Term.var "x"; Term.var "y" ]);
  check "remove present" true (Index.remove (f [ "c"; "b" ]) idx);
  check "remove absent" false (Index.remove (f [ "c"; "b" ]) idx);
  Alcotest.(check (list (list string)))
    "posting pruned in place, order kept"
    [ [ "d"; "b" ]; [ "a"; "b" ] ]
    (posting_b ());
  Alcotest.(check int) "count follows" 2 (List.length (posting_b ()));
  (* re-insert lands at the front again *)
  ignore (Index.insert (f [ "c"; "b" ]) idx);
  Alcotest.(check (list (list string)))
    "re-insert is most recent"
    [ [ "c"; "b" ]; [ "d"; "b" ]; [ "a"; "b" ] ]
    (posting_b ());
  Alcotest.(check int) "size" 4 (Index.size idx)

(* Regression (mirrors the PR 5 Homomorphism memory-stability shape):
   repeated insert/delete cycles over a fixed fact set in a maintained
   store must not grow the store's capacity — posting lists and any
   future columnar backing have to reclaim or reuse the slots. The
   sigma is existential-free so the churn is pure store traffic (the
   global null supply is out of scope here). *)
let test_serve_capacity_stable () =
  let sigma =
    [
      tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "A" [ v "y" ] ];
      tgd [ atom "A" [ v "x" ] ] [ atom "B" [ v "x" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "S" [ "a"; "b" ] ] in
  Term.reset_nulls ();
  let t = Incr.create sigma db in
  let churn =
    [ fact "S" [ "b"; "c" ]; fact "S" [ "c"; "a" ]; fact "A" [ "c" ] ]
  in
  let cycle () =
    List.iter (fun f -> ignore (Incr.insert t f)) churn;
    List.iter (fun f -> ignore (Incr.delete t f)) churn
  in
  for _ = 1 to 200 do
    cycle ()
  done;
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let cap0 = Engine.Index.capacity_words (Incr.index t) in
  for _ = 1 to 2000 do
    cycle ()
  done;
  Gc.compact ();
  let live1 = (Gc.stat ()).Gc.live_words in
  (* 2000 further cycles insert and retract the same 3 base facts (and
     their consequences); a store that fails to reclaim slots retains
     thousands of words per 1000 cycles *)
  check "insert/delete churn leaves no residue" true (live1 - live0 < 8_000);
  (* and the columnar backing itself must not grow: freed row slots are
     reused, emptied posting vectors dropped, and the membership table
     (counted by capacity_words) never doubles at a stable store size *)
  Alcotest.(check int)
    "store capacity unchanged" cap0
    (Engine.Index.capacity_words (Incr.index t))

(* ------------------------------------------------------------------ *)
(* Symtab / Vec units                                                   *)
(* ------------------------------------------------------------------ *)

(* Regrow corner: push across several doublings of the Bigarray backing
   (starting from the minimum capacity), then exercise pop and the
   tombstone at the boundary. *)
let test_vec_regrow () =
  let open Engine in
  let v = Vec.create ~capacity:1 () in
  for i = 0 to 9999 do
    Vec.push v (i * 3)
  done;
  Alcotest.(check int) "length" 10_000 (Vec.length v);
  check "capacity >= length" true (Vec.capacity v >= 10_000);
  check "values survive regrow" true
    (Vec.get v 0 = 0 && Vec.get v 4095 = 4095 * 3 && Vec.get v 4096 = 4096 * 3
   && Vec.get v 9999 = 9999 * 3);
  Alcotest.(check int) "pop returns last" (9999 * 3) (Vec.pop v);
  (* a tombstone exactly at the last-doubling boundary *)
  Vec.kill v 4096 (-1);
  Alcotest.(check int) "tombstone keeps the slot" 9_999 (Vec.length v);
  Alcotest.(check int) "live after kill" 9_998 (Vec.live v);
  Alcotest.(check int) "tombstone value" (-1) (Vec.get v 4096);
  check "killing a dead slot is rejected" true
    (match Vec.kill v 4096 (-1) with () -> false | exception Invalid_argument _ -> true);
  check "a non-negative tombstone is rejected" true
    (match Vec.kill v 0 0 with () -> false | exception Invalid_argument _ -> true)

(* Tombstones: dead slots stay in place until they are more than half of
   the vector, then the live slots close up in order; the capacity is
   kept throughout. *)
let test_vec_tombstones () =
  let open Engine in
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * 3)
  done;
  let cap = Vec.capacity v in
  for i = 0 to 49 do
    Vec.kill v ((2 * i) + 1) (-i - 1)
  done;
  Alcotest.(check int) "half dead: no compaction" 100 (Vec.length v);
  Alcotest.(check int) "half dead: live count" 50 (Vec.live v);
  Alcotest.(check (list int)) "tombstones in place"
    [ 0; -1; 6; -2 ]
    (List.filteri (fun i _ -> i < 4) (Vec.to_list v));
  Vec.kill v 0 (-100);
  Alcotest.(check int) "past half: compacted" 49 (Vec.length v);
  Alcotest.(check int) "past half: live count" 49 (Vec.live v);
  Alcotest.(check (list int)) "live slots in order"
    (List.init 49 (fun i -> ((2 * i) + 2) * 3))
    (Vec.to_list v);
  Alcotest.(check int) "capacity kept" cap (Vec.capacity v);
  while Vec.live v > 0 do
    let i = ref 0 in
    while Vec.get v !i < 0 do
      incr i
    done;
    Vec.kill v !i (-1)
  done;
  Alcotest.(check int) "all dead: empty" 0 (Vec.length v);
  Alcotest.(check int) "all dead: capacity kept" cap (Vec.capacity v)

(* Removal by order slot against a rebuilt store. Random interleavings
   of inserts (each at a random level) and removes over R/1, R/2 (one
   predicate at two arities, sharing an order vector) and S/2 on four
   constants, long enough that the order vectors squeeze their
   tombstones out many times and re-file their rows' slots. After every
   operation the store must agree with the store rebuilt from its
   [ordered_facts]: the same facts with levels in storage order, the
   same candidates in the same order for every posting and every whole
   relation, and, for every fact, the same [handle_level]. *)
type store_op = Ins of Fact.t * int | Rem of Fact.t

let slot_schema = [ ("R", 1); ("R", 2); ("S", 2) ]
let slot_consts = [ "a"; "b"; "c"; "d" ]

let gen_slot_fact =
  QCheck.Gen.(
    let* p, arity = oneofl slot_schema in
    let* args = list_repeat arity (oneofl slot_consts) in
    return (fact p args))

(* Every candidate walk of [idx]: per predicate and arity, the relation
   scan, then each position bound to each constant, as the facts met. *)
let candidate_walks idx =
  let open Engine in
  let walk args =
    let a = Atom.make (fst args) (snd args) in
    let slot x = int_of_string (String.sub x 1 (String.length x - 1)) in
    let ca = Index.compile_atom idx ~slot a in
    let benv = Array.make 3 (-1) and met = ref [] in
    ignore
      (Index.fold_catom idx ca ~benv ~on_candidate:ignore ~on_fail:ignore
         (fun _ ->
           met := Index.decode_key idx (Index.handle_key idx (Index.catom_matched ca)) :: !met;
           false)
         0);
    List.rev !met
  in
  List.concat_map
    (fun (p, arity) ->
      let vars = List.init arity (fun i -> Term.var (Printf.sprintf "x%d" i)) in
      walk (p, vars)
      :: List.concat_map
           (fun i ->
             List.map
               (fun c -> walk (p, List.mapi (fun j x -> if j = i then Term.const c else x) vars))
               slot_consts)
           (List.init arity Fun.id))
    slot_schema

let store_views idx =
  let open Engine in
  let facts = Index.ordered_facts idx in
  ( facts,
    candidate_walks idx,
    List.map
      (fun (f, _) ->
        match Index.key idx f with
        | Some k -> Index.handle_level idx (Index.handle idx k)
        | None -> -1)
      facts )

let prop_remove_by_slot =
  QCheck.Test.make ~name:"removal by order slot = rebuilt store" ~count:300
    (QCheck.make
       ~print:(fun ops ->
         String.concat " "
           (List.map
              (function
                | Ins (f, l) -> Fmt.str "+%a@%d" Fact.pp f l
                | Rem f -> Fmt.str "-%a" Fact.pp f)
              ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(
         list_size (int_range 1 300)
           (let* f = gen_slot_fact and* ins = float_bound_inclusive 1. and* l = int_range 0 3 in
            return (if ins < 0.55 then Ins (f, l) else Rem f))))
    (fun ops ->
      let open Engine in
      let idx = Index.create () in
      List.for_all
        (fun op ->
          (match op with
          | Ins (f, level) -> ignore (Index.insert ~level f idx)
          | Rem f -> ignore (Index.remove f idx));
          let rebuilt = Index.create () in
          List.iter
            (fun (f, level) -> ignore (Index.insert ~level f rebuilt))
            (Index.ordered_facts idx);
          store_views idx = store_views rebuilt)
        ops)

(* [capacity_words] counts every column of a row: on a fresh store, 8
   unary facts over 8 constants fill the default 8 slots of the argument
   column, the level-and-stamp column, the order-slot column and the
   order vector (32 words), plus the one-slot row and vector free lists
   (2), and the 16-slot membership table (32); the postings are inline
   singletons, which cost nothing here. *)
let test_capacity_counts_columns () =
  let idx = Engine.Index.create () in
  for i = 0 to 7 do
    ignore (Engine.Index.insert (fact "A" [ Printf.sprintf "c%d" i ]) idx)
  done;
  Alcotest.(check int) "capacity words" 66 (Engine.Index.capacity_words idx)

(* Itab against a Hashtbl model: random replace/remove over 96 keys,
   dense (so probe runs wrap around the end of the table, and it doubles
   from 8 slots to 128) or spread far apart. After every op the length
   agrees and every key finds the model's value, or -1 when unbound —
   so a backward-shift removal that cuts a probe run short shows. *)
type itab_op = Put of int * int | Del of int

let prop_itab_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map2
              (fun k v -> Put (k, if v = -1 then -2 else v))
              (int_bound 95) (int_range (-1000) 1000) );
          (2, map (fun k -> Del k) (int_bound 95));
        ])
  in
  let pp = function
    | Put (k, v) -> Printf.sprintf "put %d %d" k v
    | Del k -> Printf.sprintf "del %d" k
  in
  QCheck.Test.make ~name:"Itab agrees with a Hashtbl model" ~count:200
    (QCheck.make
       ~print:(fun (sparse, ops) ->
         Printf.sprintf "%s: %s"
           (if sparse then "sparse" else "dense")
           (String.concat "; " (List.map pp ops)))
       ~shrink:QCheck.Shrink.(pair nil list)
       QCheck.Gen.(pair bool (list_size (int_range 1 400) gen_op)))
    (fun (sparse, ops) ->
      let key k = if sparse then k * 1_000_003 else k in
      let t = Engine.Itab.create () and m = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          (match op with
          | Put (k, v) ->
              Engine.Itab.replace t (key k) v;
              Hashtbl.replace m k v
          | Del k ->
              Engine.Itab.remove t (key k);
              Hashtbl.remove m k);
          Engine.Itab.length t = Hashtbl.length m
          && List.for_all
               (fun k ->
                 Engine.Itab.find t (key k)
                 = Option.value (Hashtbl.find_opt m k) ~default:(-1))
               (List.init 96 Fun.id))
        ops)

let test_itab_negative_key () =
  let t = Engine.Itab.create () in
  check "a negative key is rejected" true
    (match Engine.Itab.replace t (-5) 1 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "a negative key is unbound" (-1) (Engine.Itab.find t (-5));
  Engine.Itab.remove t (-5);
  Alcotest.(check int) "removing it is a no-op" 0 (Engine.Itab.length t)

(* Interning round-trips, ids are dense, and predicates have their own
   id space. *)
let test_symtab_roundtrip () =
  let open Engine in
  let named = List.init 50 (fun i -> Term.Named (Printf.sprintf "c%02d" i)) in
  let nulls = List.init 50 (fun i -> Term.Null (i + 1)) in
  let everything = named @ nulls in
  let t = Symtab.create () in
  List.iter (fun c -> ignore (Symtab.intern t c)) everything;
  check "round-trip" true
    (List.for_all (fun c -> Symtab.extern t (Symtab.intern t c) = c) everything);
  check "find agrees with intern" true
    (List.for_all (fun c -> Symtab.find t c = Some (Symtab.intern t c)) everything);
  Alcotest.(check int) "dense ids" 100 (Symtab.size t);
  check "unknown symbol" true (Symtab.find t (Term.Named "zzz") = None);
  (* null payloads far beyond the dense range force the null-table regrow *)
  let far = Term.Null 100_000 in
  let id = Symtab.intern t far in
  check "null regrow round-trip" true
    (Symtab.extern t id = far && Symtab.find t far = Some id);
  (* the null column starts at the first payload interned: a smaller
     payload, like a negative one, lives in the side table *)
  let t' = Symtab.create () in
  let side = [ Term.Null 500; Term.Null 7; Term.Null (-2); Term.Null 501 ] in
  List.iter (fun c -> ignore (Symtab.intern t' c)) side;
  check "nulls below the column round-trip" true
    (List.for_all
       (fun c ->
         let id = Symtab.intern t' c in
         Symtab.extern t' id = c && Symtab.find t' c = Some id
         && Symtab.find_int t' c = id)
       side);
  check "an absent null below the column is unknown" true
    (Symtab.find t' (Term.Null 8) = None && Symtab.find_int t' (Term.Null 8) = -1);
  (* predicates intern in their own id space *)
  let p = Symtab.intern_pred t "Edge" in
  Alcotest.(check string) "pred round-trip" "Edge" (Symtab.extern_pred t p)

(* Loading a fact list straight into a store ([Index.of_facts]) builds
   the store [of_instance] builds from the instance of the same facts:
   the same facts with their levels in the same storage order, the same
   symbol and predicate ids, the same ["engine.insert"] hits and index
   counters, and, right after the load, symbols equal to the active
   domain. The lists hold duplicates, a nullary predicate, one
   predicate at two arities, nulls beside named constants, and numerals
   whose string order is not their numeric order ("10" < "9"). *)
let gen_load_facts =
  QCheck.Gen.(
    let consts =
      [| Term.Named "a"; Named "b"; Named "b2"; Named "9"; Named "10";
         Null 3; Null 12 |]
    in
    let preds = [| ("R", 1); ("R", 2); ("S", 2); ("T", 0); ("U", 3); ("r", 1) |] in
    let gen_fact =
      let* p, arity = oneofa preds in
      let* args = list_repeat arity (oneofa consts) in
      return (Fact.make p args)
    in
    let* fs = list_size (int_range 0 40) gen_fact in
    let* again = if fs = [] then return [] else list_size (int_range 0 10) (oneofl fs) in
    shuffle_l (fs @ again))

let load_observables load fs =
  let inserts = ref 0 in
  Obs.Probe.install (fun p -> if p = "engine.insert" then incr inserts);
  let idx = Fun.protect ~finally:Obs.Probe.clear (fun () -> load fs) in
  let st = Engine.Index.symtab idx in
  ( Engine.Index.ordered_facts idx,
    List.init (Engine.Symtab.size st) (Engine.Symtab.extern st),
    List.init (Engine.Symtab.pred_count st) (Engine.Symtab.extern_pred st),
    !inserts,
    Obs.Metrics.counters (Engine.Index.metrics idx),
    Engine.Index.symbols idx )

let prop_load_matches_instance =
  QCheck.Test.make ~name:"Index.of_facts = of_instance of the instance" ~count:300
    (QCheck.make
       ~print:(fun fs -> Fmt.str "%a" Fmt.(list ~sep:sp Fact.pp) fs)
       gen_load_facts)
    (fun fs ->
      let facts, syms, preds, hits, counters, universe =
        load_observables Engine.Index.of_facts fs
      in
      let facts', syms', preds', hits', counters', _ =
        load_observables
          (fun fs -> Engine.Index.of_instance (Instance.of_facts fs))
          fs
      in
      facts = facts' && syms = syms' && preds = preds' && hits = hits'
      && counters = counters'
      && Term.ConstSet.equal universe (Instance.dom (Instance.of_facts fs)))

(* A store's null column holds the store's own nulls. The payload
   counter is process-wide, so a column indexed by raw payload made a
   store built after 1,000,000 nulls had been issued allocate a
   2^21-slot int array: the same lubm-4 chase read 1711.5 major words
   per chased fact instead of 6.7. *)
let test_null_column_own_nulls () =
  let sigma, db = Guarded_core.Workload.lubm ~universities:4 () in
  let major_per_fact () =
    Gc.full_major ();
    let s0 = Gc.quick_stat () in
    let r = Chase.run sigma db in
    Gc.minor ();
    let s1 = Gc.quick_stat () in
    (s1.Gc.major_words -. s0.Gc.major_words)
    /. float_of_int (Engine.Index.size (Chase.index r))
  in
  Term.reset_nulls ();
  let fresh = major_per_fact () in
  Term.set_null_count 1_000_000;
  let late = major_per_fact () in
  Term.reset_nulls ();
  check
    (Fmt.str "major words per chased fact: %.1f after 10^6 nulls, %.1f fresh"
       late fresh)
    true
    (late < 1.2 *. fresh)

let qcheck_tests =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 28 |])
    prop_load_matches_instance
  :: List.map QCheck_alcotest.to_alcotest
    [
      prop_fresh_chase_byte_identical;
      prop_naive_equivalent;
      prop_resume_byte_identical;
      prop_serve_byte_identical;
      prop_itab_model;
      prop_remove_by_slot;
    ]

let () =
  Alcotest.run "store"
    [
      ( "oracle",
        [
          Alcotest.test_case "pinned oblivious chase" `Quick
            test_pinned_oblivious;
          Alcotest.test_case "pinned restricted chase" `Quick
            test_pinned_restricted;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "posting order and remove" `Quick
            test_posting_order_and_remove;
          Alcotest.test_case "serve capacity stable" `Quick
            test_serve_capacity_stable;
        ] );
      ( "units",
        [
          Alcotest.test_case "vec regrow boundary" `Quick test_vec_regrow;
          Alcotest.test_case "vec tombstones" `Quick test_vec_tombstones;
          Alcotest.test_case "capacity counts every column" `Quick
            test_capacity_counts_columns;
          Alcotest.test_case "itab negative key" `Quick test_itab_negative_key;
          Alcotest.test_case "symtab intern/extern round-trip" `Quick
            test_symtab_roundtrip;
          Alcotest.test_case "null column holds the store's own nulls" `Quick
            test_null_column_own_nulls;
        ] );
      ("equivalence", qcheck_tests);
    ]
