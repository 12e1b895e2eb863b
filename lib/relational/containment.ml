(** Classical (constraint-free) containment of CQs and UCQs
    (Chandra–Merlin, [17]). *)

open Term

(** [cq_contained q1 q2] — [q1 ⊆ q2]: a homomorphism from [q2] to [D[q1]]
    mapping answer variables to the frozen answer of [q1]. *)
let cq_contained (q1 : Cq.t) (q2 : Cq.t) =
  Cq.arity q1 = Cq.arity q2
  &&
  let db = Cq.canonical_db q1 in
  let init =
    List.fold_left2
      (fun acc x c -> VarMap.add x c acc)
      VarMap.empty (Cq.answer q2) (Cq.frozen_answer q1)
  in
  Homomorphism.exists ~init (Cq.atoms q2) db

let cq_equivalent q1 q2 = cq_contained q1 q2 && cq_contained q2 q1

(** UCQ containment: [u1 ⊆ u2] iff every disjunct of [u1] is contained in
    some disjunct of [u2] (sound and complete for UCQs). *)
let ucq_contained u1 u2 =
  List.for_all
    (fun p1 -> List.exists (fun p2 -> cq_contained p1 p2) (Ucq.disjuncts u2))
    (Ucq.disjuncts u1)

(** Drop disjuncts subsumed by other disjuncts (containment-minimal UCQ). *)
let minimize_ucq u =
  let ds = Ucq.disjuncts (Ucq.dedup u) in
  let rec keep acc = function
    | [] -> List.rev acc
    | q :: rest ->
        let others = acc @ rest in
        if List.exists (fun q' -> cq_contained q q') others then keep acc rest
        else keep (q :: acc) rest
  in
  Ucq.make (keep [] ds)
