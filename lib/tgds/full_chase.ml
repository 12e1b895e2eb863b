(** Chase for full TGDs (no existential variables).

    For full TGDs the chase is a plain saturation and always terminates
    with a polynomial bound for guarded full sets (Lemma A.4). This module
    is the fast path used by the full-TGD rewritings of Theorem D.1; it
    runs on the semi-naive engine of [lib/engine]. Runs are bounded by an
    optional {!Obs.Budget.t}; {!run} reports whether the fixpoint was
    reached or the budget cut it. *)

open Relational

let check_full sigma =
  List.iter
    (fun t ->
      if not (Tgd.is_full t) then
        invalid_arg "Full_chase.saturate: non-full TGD")
    sigma

(** [run ?budget ?obs sigma db] — the (finite) chase of [db] under the
    full TGD set [sigma], with the outcome of the run. Raises
    [Invalid_argument] when some TGD is not full. *)
let run ?(budget = Obs.Budget.unlimited) ?obs sigma db =
  check_full sigma;
  let r =
    Engine.Saturate.run ~budget ?obs
      (sigma : Tgd.t list :> Engine.Saturate.rule list)
      db
  in
  (Engine.Index.to_instance r.Engine.Saturate.index, r.Engine.Saturate.outcome)

(** [saturate sigma db] — {!run} without the outcome. *)
let saturate ?budget ?obs sigma db = fst (run ?budget ?obs sigma db)

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
