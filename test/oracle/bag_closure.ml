(** The bag fixpoint: the ground closure as {!Tgds.Ground_closure}
    computed it before it ran on the engine, kept as the reference its
    differential test checks against. The code below is that
    implementation, unchanged.

    For a guarded set Σ and a database D, computes
    [chase↓(D,Σ) = { R(ā) ∈ chase(D,Σ) | ā ⊆ dom(D) }] — the instance
    called [complete(D,Σ)] and [D⁺] in Appendix A/F, and the source of the
    atom types [typeD,Σ(α)]. Unlike the chase itself, the ground closure is
    always finite, and for fixed Σ computable in polynomial time.

    Algorithm: a worklist fixpoint over *bag types*. Every existential
    trigger spawns a child bag (the instantiated head plus the current
    ground context over the trigger's frontier constants); the child bag is
    saturated recursively — memoized on the isomorphism type of the bag —
    and only its facts over the frontier constants flow back. Guardedness
    makes this complete: a guarded body always maps into the atoms over a
    single atom's constants, so no derivation spans bags (§A, properties of
    [typeD,Σ]). *)

open Relational
open Relational.Term
open Tgds

(* Canonical constants used inside memoized bags. *)
let canon_const i = Named (Printf.sprintf "\001%d" i)

(* All permutations of a list (used for canonical forms of small bags). *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

(* Encode an instance renamed by [assoc : (const * const) list]. *)
let encode inst assoc =
  Instance.facts inst
  |> List.map (fun f ->
         let f = Fact.rename (fun c -> List.assoc_opt c assoc) f in
         Fmt.str "%a" Fact.pp f)
  |> List.sort String.compare
  |> String.concat ";"

(** Canonicalize a small instance: a key invariant under renaming of
    constants, together with the renaming used and its inverse. For bags of
    more than 7 constants the first-occurrence order is used instead of the
    minimal permutation — still sound and terminating, only weaker
    sharing. *)
let canonicalize inst =
  let consts = ConstSet.elements (Instance.dom inst) in
  let m = List.length consts in
  let with_order order =
    List.mapi (fun i c -> (c, canon_const i)) order
  in
  let assoc =
    if m > 7 then with_order consts
    else
      permutations consts
      |> List.map with_order
      |> List.map (fun a -> (encode inst a, a))
      |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)
      |> List.hd |> snd
  in
  let key = encode inst assoc in
  let inverse = List.map (fun (c, d) -> (d, c)) assoc in
  (key, assoc, inverse)

type state = {
  sigma : Tgd.t list;
  memo : (string, Instance.t) Hashtbl.t;  (** canonical bag -> saturation *)
  in_progress : (string, unit) Hashtbl.t;
  dirty : bool ref;  (** some memo entry changed during the pass *)
  budget : Obs.Budget.t;
  passes : int ref;  (** saturation rounds run, at any nesting depth *)
}

(* Graceful cutoff: unwinds every nested bag saturation at once; the
   closure computed so far is kept. *)
exception Budget_stop of Obs.Budget.violation

let fresh_state ?(budget = Obs.Budget.unlimited) sigma =
  {
    sigma;
    memo = Hashtbl.create 64;
    in_progress = Hashtbl.create 16;
    dirty = ref false;
    budget;
    passes = ref 0;
  }

(* One saturation round over [cur]: fire every trigger; ground heads are
   added directly, existential heads go through a recursively saturated
   child bag whose facts over [dom cur] flow back. Body matching runs on
   the indexed joiner (lib/engine) over a per-round index of [cur]. *)
let rec round st cur =
  Obs.Probe.hit "ground_closure.round";
  incr st.passes;
  (match
     Obs.Budget.check st.budget ~facts:(Instance.size !cur) ~level:!(st.passes)
   with
  | Some v -> raise (Budget_stop v)
  | None -> ());
  let additions = ref [] in
  let dom_cur = Instance.dom !cur in
  let idx = Engine.Index.of_instance !cur in
  List.iter
    (fun t ->
      Engine.Joiner.fold ~counters:(Engine.Joiner.counters idx) (Tgd.body t) idx
        (fun b () ->
          let ex = Tgd.existential_vars t in
          if VarSet.is_empty ex then
            List.iter
              (fun h ->
                let f = Fact.of_atom (Homomorphism.apply_binding b h) in
                if not (Instance.mem f !cur) then additions := f :: !additions)
              (Tgd.head t)
          else begin
            let fresh =
              VarSet.fold (fun z acc -> VarMap.add z (fresh_null ()) acc) ex VarMap.empty
            in
            let full = VarMap.union (fun _ a _ -> Some a) b fresh in
            let head_facts =
              List.map (fun h -> Fact.of_atom (Homomorphism.apply_binding full h)) (Tgd.head t)
            in
            let frontier_consts =
              VarSet.fold
                (fun x acc ->
                  match VarMap.find_opt x b with
                  | Some c -> ConstSet.add c acc
                  | None -> acc)
                (Tgd.frontier t) ConstSet.empty
            in
            let child =
              Instance.union
                (Instance.of_facts head_facts)
                (Instance.restrict !cur frontier_consts)
            in
            let emitted = saturate_bag st child in
            Instance.iter
              (fun f ->
                if Fact.within dom_cur f && not (Instance.mem f !cur) then
                  additions := f :: !additions)
              emitted
          end)
        ())
    st.sigma;
  match !additions with
  | [] -> false
  | fs ->
      cur := List.fold_left (fun i f -> Instance.add_fact f i) !cur fs;
      true

(* Saturate a small bag, memoized on its canonical form. Returns all facts
   over [dom local] entailed from [local]. *)
and saturate_bag st local =
  let key, assoc, inverse = canonicalize local in
  let stored =
    match Hashtbl.find_opt st.memo key with
    | Some s -> s
    | None -> Instance.rename (fun c -> List.assoc_opt c assoc) local
  in
  if Hashtbl.mem st.in_progress key then
    (* re-entrant type: return the current approximation; the global pass
       repeats until no memo entry moves, so this converges *)
    Instance.rename (fun c -> List.assoc_opt c inverse) stored
  else begin
    Hashtbl.replace st.in_progress key ();
    let cur = ref stored in
    let continue_ = ref true in
    while !continue_ do
      continue_ := round st cur
    done;
    Hashtbl.remove st.in_progress key;
    let before = match Hashtbl.find_opt st.memo key with Some s -> s | None -> stored in
    if not (Instance.equal before !cur) then st.dirty := true;
    Hashtbl.replace st.memo key !cur;
    Instance.rename (fun c -> List.assoc_opt c inverse) !cur
  end

(** [compute_report ?budget ?obs sigma db] — the ground closure
    [chase↓(db,sigma)] together with the run's outcome: [Partial _] when
    the budget cut the fixpoint (the closure computed so far is
    returned). Requires every TGD of [sigma] to be guarded (raises
    [Invalid_argument] otherwise; the locality argument fails for mere
    frontier-guardedness, cf. the footnote to Lemma D.11). *)
let compute_report ?budget ?obs sigma db =
  if not (Tgd.all_guarded sigma) then
    invalid_arg "Ground_closure.compute: Σ must be guarded";
  Obs.Span.timed obs "ground_closure" @@ fun () ->
  let st = fresh_state ?budget sigma in
  let closure = ref db in
  let outcome =
    try
      let continue_ = ref true in
      while !continue_ do
        st.dirty := false;
        let grew = round st closure in
        continue_ := grew || !(st.dirty)
      done;
      Obs.Budget.Complete
    with Budget_stop v -> Obs.Budget.Partial v
  in
  (!closure, outcome)

(** [compute sigma db] — {!compute_report} without the outcome. *)
let compute ?budget ?obs sigma db =
  fst (compute_report ?budget ?obs sigma db)
