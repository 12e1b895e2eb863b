(** The fpt-reductions of the paper, executable end to end.

    - {!omq_to_cqs}: Proposition 5.8 / Lemma 6.8 — from OMQ evaluation
      (open world) to CQS evaluation (closed world) for guarded TGDs, via
      finite witnesses glued over the maximal guarded sets of [D⁺].
    - {!clique_to_cqs}: the p-Clique reduction of Theorem 5.13 (and, with
      [Σ = ∅], of Grohe's Theorem 4.1): from a graph [G] and clique size
      [k], build the database [D*(G, D[p], D[p′], X, μ)] on which the CQS
      query holds iff [G] has a [k]-clique.
    - {!lemma_7_2_data}: the companion data [(p, X, p′)] of Lemma 7.2,
      computed greedily with dynamic verification of its properties
      (DESIGN.md §5). *)

open Relational
open Relational.Term
module Tgd = Tgds.Tgd

(* ------------------------------------------------------------------ *)
(* Proposition 5.8: OMQ → CQS                                           *)
(* ------------------------------------------------------------------ *)

(** [omq_to_cqs ?n omq db] — the database [D*] of Lemma 6.8:
    [D⁺ ∪ ⋃_{ā ∈ A} M(D⁺|ā, Σ, n)] where [A] ranges over the maximal
    guarded tuples of [D⁺] and [M] is the finite witness of Theorem 6.7.
    Requires a guarded ontology. [D* ⊨ Σ], and
    [c̄ ∈ Q(db) ⟺ c̄ ∈ q(D_star)]. [n] defaults to the number of variables of
    the OMQ's UCQ. *)
let omq_to_cqs ?n (q : Omq.t) db =
  if not (Omq.in_guarded q) then
    invalid_arg "Reductions.omq_to_cqs: ontology must be guarded";
  let sigma = Omq.ontology q in
  let n =
    match n with
    | Some n -> n
    | None ->
        List.fold_left
          (fun acc p -> max acc (VarSet.cardinal (Cq.vars p)))
          0
          (Ucq.disjuncts (Omq.query q))
  in
  let d_plus = Tgds.Ground_closure.compute sigma db in
  let guarded_sets = Instance.maximal_guarded_sets d_plus in
  List.fold_left
    (fun acc bag ->
      let local = Instance.restrict d_plus bag in
      (* fresh nulls of each witness are globally fresh, so the witness
         domains pairwise intersect only inside dom(D) as required *)
      let m = Finite_witness.build ~n sigma local in
      Instance.union acc m)
    d_plus guarded_sets

(* ------------------------------------------------------------------ *)
(* Lemma 7.2 companion data                                             *)
(* ------------------------------------------------------------------ *)

type lemma72 = {
  cqs : Cqs.t;
  p : Cq.t;  (** Σ-equivalent minimization of the query *)
  p' : Cq.t;  (** a Σ-satisfying extension: [D[p'] ⊨ Σ], [D[p] ⊆ D[p']] *)
  x : VarSet.t;  (** the grid-carrying variable set *)
}

(* All homomorphisms p -> D[p'] fixing the answer variables. *)
let homs_p_to_p' (p : Cq.t) (p' : Cq.t) =
  let db = Cq.canonical_db p' in
  let init =
    List.fold_left
      (fun acc x -> VarMap.add x (Cq.freeze x) acc)
      VarMap.empty (Cq.answer p)
  in
  Homomorphism.all ~init (Cq.atoms p) db

(* Does every hom p -> p' fix X setwise (property 4 of Lemma 7.2)? *)
let x_fixed (p : Cq.t) (p' : Cq.t) (x : VarSet.t) =
  let frozen_x =
    VarSet.fold (fun v acc -> ConstSet.add (Cq.freeze v) acc) x ConstSet.empty
  in
  List.for_all
    (fun b ->
      let image =
        VarSet.fold
          (fun v acc ->
            match VarMap.find_opt v b with
            | Some c -> ConstSet.add c acc
            | None -> acc)
          x ConstSet.empty
      in
      ConstSet.equal image frozen_x)
    (homs_p_to_p' p p')

(* Treewidth of the subgraph of G^p induced by a variable set. *)
let tw_on (p : Cq.t) (x : VarSet.t) =
  let g, arr = Cq.gaifman p in
  let keep = ref Qgraph.Graph.ISet.empty in
  Array.iteri
    (fun i v -> if VarSet.mem v x then keep := Qgraph.Graph.ISet.add i !keep)
    arr;
  let sub = Qgraph.Graph.induced g !keep in
  if Qgraph.Graph.num_edges sub = 0 then 1 else Qgraph.Treewidth.treewidth sub

(** [lemma_7_2_data ?n s] — compute [(p, X, p′)] for a CQS with a CQ
    query: [p] by greedy Σ-minimization, [p′] by reading the finite
    witness [M(D[p],Σ,n)] back as a CQ, and [X] by greedily shrinking the
    existential variables while the treewidth survives, falling back to
    all existential variables when property (4) fails dynamic
    verification. *)
let lemma_7_2_data ?(n = 6) (s : Cqs.t) =
  let sigma = Cqs.constraints s in
  let q =
    match Ucq.disjuncts (Cqs.query s) with
    | [ q ] -> q
    | _ -> invalid_arg "Reductions.lemma_7_2_data: single-CQ queries only"
  in
  let p = Sigma_containment.minimize sigma q in
  let m = Finite_witness.build ~n sigma (Cq.canonical_db p) in
  let p' = Cq.of_instance ~answer:(Cq.frozen_answer p) m in
  (* X: shrink greedily from the existential variables of p while the
     treewidth of G^p|X stays put *)
  let k_star = tw_on p (Cq.evars p) in
  let rec shrink x =
    let candidate =
      VarSet.fold
        (fun v acc ->
          match acc with
          | Some _ -> acc
          | None ->
              let x' = VarSet.remove v x in
              if tw_on p x' = k_star && x_fixed p p' x' then Some x' else None)
        x None
    in
    match candidate with Some x' -> shrink x' | None -> x
  in
  let x0 = Cq.evars p in
  let x = if x_fixed p p' x0 then shrink x0 else x0 in
  { cqs = s; p; p'; x }

(** [verify_lemma72 d] — dynamic check of the properties of Lemma 7.2:
    (1) [q ≡_Σ p] (certified during minimization), (2) [D[p'] ⊨ Σ],
    (3) [D[p] ⊆ D[p']], (4) [h(X) = X] for every hom [p → p']. *)
let verify_lemma72 (d : lemma72) =
  let sigma = Cqs.constraints d.cqs in
  Tgd.satisfies_all (Cq.canonical_db d.p') sigma
  && Instance.subset (Cq.canonical_db d.p) (Cq.canonical_db d.p')
  && x_fixed d.p d.p' d.x

(* ------------------------------------------------------------------ *)
(* Theorem 5.13 / Theorem 4.1: p-Clique → CQS evaluation                *)
(* ------------------------------------------------------------------ *)

type clique_instance = {
  data : lemma72;
  k : int;
  graph : Qgraph.Graph.t;
  d_star : Grohe.built;
}

(** [clique_to_cqs d ~graph ~k] — build the reduction database
    [D*(G, D[p], D[p′], X, μ)]. Returns [None] when no [k × K]-grid minor
    is found in [G^p|X] (then this CQS cannot carry a size-[k] clique
    reduction — pick a wider query). *)
let clique_to_cqs (d : lemma72) ~graph ~k =
  let dp = Cq.canonical_db d.p in
  let frozen_x =
    VarSet.fold (fun v acc -> ConstSet.add (Cq.freeze v) acc) d.x ConstSet.empty
  in
  match Grohe.find_minor_map ~k dp frozen_x with
  | None -> None
  | Some mu ->
      let built =
        Grohe.cqs_construction ~graph ~k ~d:dp ~d':(Cq.canonical_db d.p')
          ~a:frozen_x ~mu
      in
      Some { data = d; k; graph; d_star = built }

(** [decide_clique ci] — evaluate the CQS query on [D*]: by Theorem 7.1
    and Lemma 7.3 this holds iff the graph has a [k]-clique. *)
let decide_clique (ci : clique_instance) =
  Ucq.holds ci.d_star.Grohe.db (Cqs.query ci.data.cqs)

(* ------------------------------------------------------------------ *)
(* Theorem 5.4 (demonstrative case): p-Clique → OMQ evaluation          *)
(* ------------------------------------------------------------------ *)

type omq_clique_instance = {
  omq : Omq.t;
  ok : int;
  ograph : Qgraph.Graph.t;
  o_dg : Grohe.built;
}

(** [clique_to_omq omq ~graph ~k] — the Theorem 5.4 reduction in the case
    the paper singles out in §6.1 ("where Σ is empty and S is full, …
    replacing q with its core and applying Theorem 6.1"), extended to
    ontologies from G ∩ FULL: minimize the (Boolean, single-CQ) query
    under Σ, find a [k × K]-grid minor in its Gaifman graph, and build the
    Theorem 6.1 database [D_G]. For the general guarded case the paper
    additionally needs diversifications (Lemma D.11), which this
    demonstrative pipeline does not perform; {!decide_omq_clique}'s
    verdicts are cross-checked against ground truth in the test suite. *)
let clique_to_omq (q : Omq.t) ~graph ~k =
  if not (Tgd.all_full (Omq.ontology q) && Tgd.all_guarded (Omq.ontology q))
  then invalid_arg "Reductions.clique_to_omq: Σ must be in G ∩ FULL";
  let cq =
    match Ucq.disjuncts (Omq.query q) with
    | [ cq ] when Cq.is_boolean cq -> cq
    | _ -> invalid_arg "Reductions.clique_to_omq: Boolean single-CQ queries only"
  in
  let p = Sigma_containment.minimize (Omq.ontology q) cq in
  let dp = Cq.canonical_db p in
  let a = Instance.dom dp in
  match Grohe.find_minor_map ~k dp a with
  | None -> None
  | Some mu ->
      let built = Grohe.omq_construction ~graph ~k ~d:dp ~a ~mu in
      Some { omq = q; ok = k; ograph = graph; o_dg = built }

(** [decide_omq_clique ci] — evaluate the OMQ on [D_G]: the chase is
    finite (Σ is full), so the verdict is exact. *)
let decide_omq_clique (ci : omq_clique_instance) =
  let chased = Tgds.Full_chase.saturate (Omq.ontology ci.omq) ci.o_dg.Grohe.db in
  Ucq.holds chased (Omq.query ci.omq)

(* ------------------------------------------------------------------ *)
(* Proposition 3.3(2): Boolean CQ evaluation → (FG, AQ) evaluation      *)
(* ------------------------------------------------------------------ *)

(** [bcq_to_fg_omq q] — the reduction behind item (2) of Proposition 3.3:
    a Boolean CQ [∃x̄ φ(x̄)] becomes the frontier-guarded TGD
    [φ(x̄) → Ans] (its frontier is empty, so it is trivially in FG though
    not in G), paired with the atomic query [Ans]. Then [D ⊨ q] iff
    [() ∈ Q(D)] — which is why W[1]-hardness of Boolean CQ evaluation is
    inherited by [(FG, CQ_k)] even at treewidth 1. *)
let bcq_to_fg_omq (q : Cq.t) =
  if not (Cq.is_boolean q) then
    invalid_arg "Reductions.bcq_to_fg_omq: Boolean CQs only";
  let ans = Atom.make "Ans" [] in
  let sigma = [ Tgd.make ~body:(Cq.atoms q) ~head:[ ans ] ] in
  assert (List.for_all Tgd.is_frontier_guarded sigma);
  Omq.make
    ~data_schema:(Cq.schema q)
    ~ontology:sigma
    ~query:(Ucq.of_cq (Cq.make [ ans ]))

(** [constraint_free_instance q] — the [Σ = ∅] specialization (Grohe's
    Theorem 4.1): [p = core(q)], [p′ = p], [X] = existential variables of
    the core. *)
let constraint_free_instance (q : Cq.t) =
  let p = Cq_core.core q in
  {
    cqs = Cqs.make ~constraints:[] ~query:(Ucq.of_cq q);
    p;
    p' = p;
    x = Cq.evars p;
  }
