(** Chase for full TGDs (no existential variables).

    For full TGDs the chase is a plain saturation and always terminates
    with a polynomial bound for guarded full sets (Lemma A.4). This module
    is the fast path used by the full-TGD rewritings of Theorem D.1. By
    default it runs on the semi-naive engine of [lib/engine]; the original
    per-round re-enumeration remains available as [`Naive] for the
    ablations. Runs are bounded by an optional {!Obs.Budget.t}; {!run}
    reports whether the fixpoint was reached or the budget cut it. *)

open Relational

let check_full sigma =
  List.iter
    (fun t ->
      if not (Tgd.is_full t) then
        invalid_arg "Full_chase.saturate: non-full TGD")
    sigma

(* The original loop: every round re-runs every body homomorphism against
   the whole instance. Rounds count as budget levels. *)
let saturate_naive ~budget ~obs sigma db =
  Obs.Span.timed obs "full_chase" @@ fun () ->
  let inst = ref db in
  let changed = ref true in
  let round_no = ref 0 in
  let violation = ref None in
  while !changed && !violation = None do
    Obs.Probe.hit "full_chase.round";
    match
      Obs.Budget.check budget ~facts:(Instance.size !inst)
        ~level:(!round_no + 1)
    with
    | Some v -> violation := Some v
    | None ->
        incr round_no;
        changed := false;
        List.iter
          (fun t ->
            let additions =
              Homomorphism.fold_homs (Tgd.body t) !inst
                (fun b acc ->
                  List.fold_left
                    (fun acc h ->
                      let f = Fact.of_atom (Homomorphism.apply_binding b h) in
                      if Instance.mem f !inst then acc else f :: acc)
                    acc (Tgd.head t))
                []
            in
            if additions <> [] then begin
              changed := true;
              inst :=
                List.fold_left (fun i f -> Instance.add_fact f i) !inst additions
            end)
          sigma
  done;
  let outcome =
    match !violation with
    | Some v -> Obs.Budget.Partial v
    | None -> Obs.Budget.Complete
  in
  (!inst, outcome)

(** [run ?engine ?budget ?obs sigma db] — the (finite) chase of [db] under
    the full TGD set [sigma], with the outcome of the run. Raises
    [Invalid_argument] when some TGD is not full. Both engines compute the
    same least fixpoint. *)
let run ?(engine = `Indexed) ?(budget = Obs.Budget.unlimited) ?obs sigma db =
  check_full sigma;
  match engine with
  | `Naive -> saturate_naive ~budget ~obs sigma db
  | `Indexed ->
      let rules =
        List.map
          (fun t -> Engine.Saturate.{ body = Tgd.body t; head = Tgd.head t })
          sigma
      in
      let r = Engine.Saturate.run ~budget ?obs rules db in
      (Engine.Index.to_instance r.Engine.Saturate.index,
       r.Engine.Saturate.outcome)

(** [saturate ?engine sigma db] — {!run} without the outcome. *)
let saturate ?engine ?budget ?obs sigma db =
  fst (run ?engine ?budget ?obs sigma db)

(** [entails sigma db q tuple] — exact UCQ certain answering over a full
    TGD set (the chase is finite and universal, Propositions 2.2/3.1). *)
let entails sigma db q tuple = Ucq.entails (saturate sigma db) q tuple

(** [holds sigma db q] — Boolean variant. *)
let holds sigma db q = Ucq.holds (saturate sigma db) q

(** An upper bound on the size of the guarded-full chase from Lemma A.4:
    [|D| · |T| · ar(T)^ar(T)]. *)
let size_bound sigma db =
  let t = Tgd.schema_of_set sigma in
  let ar = max 1 (Schema.ar t) in
  let pow =
    let rec go acc n = if n = 0 then acc else go (acc * ar) (n - 1) in
    go 1 ar
  in
  Instance.size db * max 1 (Schema.cardinal t) * pow
