(* Ontology-mediated querying over a university domain (open world).

   Demonstrates: certain answers under incomplete data, the difference an
   ontology makes, the FPT evaluation pipeline of Proposition 3.3(3)
   (linearization), and exact atomic answering through the ground closure
   even when the chase is infinite.

   Run with: dune exec examples/university.exe *)

open Relational
open Guarded_core

let v = Term.var
let atom p args = Atom.make p args
let fact p args = Fact.make p (List.map (fun s -> Term.Named s) args)

let ontology = Workload.university_ontology ()

let db =
  Instance.of_facts
    [
      fact "Prof" [ "ada" ];
      fact "Prof" [ "turing" ];
      fact "Teaches" [ "turing"; "computability" ];
      fact "Course" [ "databases" ];
    ]

let boolean atoms = Ucq.of_cq (Cq.make atoms)

let () =
  Fmt.pr "== ontology-mediated querying: university ==@.@.";
  Fmt.pr "ontology (guarded TGDs):@.  %a@.@."
    Fmt.(list ~sep:(any "@.  ") Tgds.Tgd.pp)
    ontology;
  Fmt.pr "data (incomplete!): %a@.@." Instance.pp db;

  (* Without the ontology, no department is known. With it, departments
     are certain: every course is offered by one. *)
  let q_dept = boolean [ atom "Dept" [ v "d" ] ] in
  Fmt.pr "∃d Dept(d) without ontology: %b@." (Ucq.holds db q_dept);
  let omq = Omq.full_data_schema ~ontology ~query:q_dept in
  Fmt.pr "∃d Dept(d) with ontology:    %b@.@."
    (Omq_eval.certain omq db []).Omq_eval.holds;

  (* Certain answers with open answers: who is certainly faculty? Ada is,
     even though no Teaches fact mentions her — the ontology says every
     professor teaches something. *)
  let q_fac = Ucq.of_cq (Cq.make ~answer:[ "x" ] [ atom "Faculty" [ v "x" ] ]) in
  let omq_fac = Omq.full_data_schema ~ontology ~query:q_fac in
  let r = Omq_eval.answer_set omq_fac db in
  Fmt.pr "certain Faculty members (exact=%b): %a@.@." r.Omq_eval.exact
    Fmt.(list ~sep:(any ", ") (fun ppf t -> Term.pp_const ppf (List.hd t)))
    r.Omq_eval.tuples;

  (* The FPT pipeline (Prop 3.3(3)): linearize the guarded ontology into
     type rules and chase the linear set. Same answers. *)
  let join =
    boolean [ atom "Teaches" [ v "x"; v "c" ]; atom "OfferedBy" [ v "c"; v "d" ] ]
  in
  let omq_join = Omq.full_data_schema ~ontology ~query:join in
  let base = Omq_eval.certain omq_join db [] in
  let fpt = Omq_eval.certain_fpt omq_join db [] in
  Fmt.pr "teaches-a-course-offered-by-a-dept:@.";
  Fmt.pr "  baseline chase engine: %b@." base.Omq_eval.holds;
  Fmt.pr "  FPT (linearized) engine: %b@.@." fpt.Omq_eval.holds;

  let lin = Tgds.Linearize.make ontology db in
  Fmt.pr "linearization: %d reachable Σ-types, %d linear rules, D* has %d facts@.@."
    lin.Tgds.Linearize.types
    (List.length lin.Tgds.Linearize.sigma_star)
    (Instance.size lin.Tgds.Linearize.db_star);

  (* An ontology with an infinite chase: management chains. Atomic certain
     answers stay exact thanks to the ground closure. *)
  let mgr = Workload.manager_ontology () in
  let mdb = Instance.of_facts [ fact "Emp" [ "eve" ] ] in
  Fmt.pr "manager ontology (infinite chase):@.  %a@."
    Fmt.(list ~sep:(any "@.  ") Tgds.Tgd.pp)
    mgr;
  Fmt.pr "Managed(eve) certain: %b@."
    (Omq_eval.certain_atomic mgr mdb (fact "Managed" [ "eve" ]));
  Fmt.pr "ground closure: %a@." Instance.pp (Tgds.Ground_closure.compute mgr mdb);
  Fmt.pr "@.done.@."
