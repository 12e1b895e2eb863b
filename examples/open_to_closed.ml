(* From open to closed world: Proposition 5.8 run forwards.

   The paper reduces OMQ evaluation (open world) to CQS evaluation
   (closed world) for guarded TGDs: from D it builds D* = D⁺ ∪ ⋃ M(D⁺|ā,Σ,n)
   — the ground closure glued with finite witnesses over every maximal
   guarded set — which *satisfies* Σ, so the ontology can be forgotten and
   the query evaluated directly. This example walks through the pieces.

   Run with: dune exec examples/open_to_closed.exe *)

open Relational
open Guarded_core

let v = Term.var
let atom p args = Atom.make p args
let fact p args = Fact.make p (List.map (fun s -> Term.Named s) args)

let () =
  Fmt.pr "== Proposition 5.8: OMQ evaluation → CQS evaluation ==@.@.";
  let sigma = Workload.manager_ontology () in
  Fmt.pr "Σ (guarded, infinite chase):@.  %a@.@."
    Fmt.(list ~sep:(any "@.  ") Tgds.Tgd.pp)
    sigma;
  Fmt.pr "weakly acyclic: %b — the chase really is infinite here@.@."
    (Tgds.Termination.weakly_acyclic sigma);

  let db = Instance.of_facts [ fact "Emp" [ "eve" ]; fact "Emp" [ "adam" ] ] in
  Fmt.pr "D = %a@.@." Instance.pp db;

  (* Step 1: the ground closure D⁺ — all certain ground atoms. *)
  let d_plus = Tgds.Ground_closure.compute sigma db in
  Fmt.pr "D⁺ (ground closure): %a@.@." Instance.pp d_plus;

  (* Step 2: finite witnesses over the maximal guarded sets, glued. *)
  let q =
    Ucq.of_cq
      (Cq.make [ atom "ReportsTo" [ v "x"; v "m" ]; atom "Managed" [ v "m" ] ])
  in
  let omq = Omq.full_data_schema ~ontology:sigma ~query:q in
  let d_star = Reductions.omq_to_cqs omq db in
  Fmt.pr "D* has %d facts and satisfies Σ: %b@.@." (Instance.size d_star)
    (Tgds.Tgd.satisfies_all d_star sigma);

  (* Step 3: open world on D = closed world on D*. *)
  let open_world = (Omq_eval.certain omq db []).Omq_eval.holds in
  let closed_world = Ucq.holds d_star q in
  Fmt.pr "q = ∃x,m (ReportsTo(x,m) ∧ Managed(m))@.";
  Fmt.pr "open-world certain answer over D:  %b@." open_world;
  Fmt.pr "closed-world evaluation over D*:   %b@.@." closed_world;

  (* The promise-breaking query: a self-report would be a spurious match
     if the finite witnesses closed their cycles too early. *)
  let loop = Ucq.of_cq (Cq.make [ atom "ReportsTo" [ v "x"; v "x" ] ]) in
  let omq_loop = Omq.full_data_schema ~ontology:sigma ~query:loop in
  Fmt.pr "self-report certain (open world): %b@."
    (Omq_eval.certain omq_loop db []).Omq_eval.holds;
  Fmt.pr "self-report on D* (closed world): %b@." (Ucq.holds d_star loop);
  Fmt.pr "@.done.@."
