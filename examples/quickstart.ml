(* Quickstart: the 5-minute tour of the library.

   Build a schema-free database, a guarded ontology, and a query; evaluate
   open world (certain answers) and closed world (plain evaluation under a
   constraint promise); inspect treewidth and the chase.

   Run with: dune exec examples/quickstart.exe *)

open Relational
open Guarded_core

let v = Term.var
let atom p args = Atom.make p args
let fact p args = Fact.make p (List.map (fun s -> Term.Named s) args)

let () =
  Fmt.pr "== guarded: quickstart ==@.@.";

  (* 1. A database. *)
  let db =
    Instance.of_facts
      [ fact "employee" [ "ada" ]; fact "works_in" [ "bob"; "sales" ] ]
  in
  Fmt.pr "database: %a@.@." Instance.pp db;

  (* 2. A guarded ontology: every employee works somewhere; workplaces are
     departments. The first rule invents a null — open-world reasoning. *)
  let ontology =
    [
      Tgds.Tgd.make
        ~body:[ atom "employee" [ v "x" ] ]
        ~head:[ atom "works_in" [ v "x"; v "d" ] ];
      Tgds.Tgd.make
        ~body:[ atom "works_in" [ v "x"; v "d" ] ]
        ~head:[ atom "department" [ v "d" ] ];
    ]
  in
  Fmt.pr "ontology:@.  %a@.@." Fmt.(list ~sep:(any "@.  ") Tgds.Tgd.pp) ontology;
  assert (Tgds.Tgd.all_guarded ontology);

  (* 3. The chase derives the implied facts (Proposition 3.1). *)
  let chased = Tgds.Chase.run ontology db in
  Fmt.pr "chase (%s): %a@.@."
    (if Tgds.Chase.saturated chased then "saturated" else "bounded")
    Instance.pp
    (Tgds.Chase.instance chased);

  (* 4. Open world: is some department certain? For which x is
     "x works in some department" certain? *)
  let q_dept = Ucq.of_cq (Cq.make [ atom "department" [ v "d" ] ]) in
  let omq = Omq.full_data_schema ~ontology ~query:q_dept in
  let verdict = Omq_eval.certain omq db [] in
  Fmt.pr "OMQ ∃d department(d): %b (exact: %b)@." verdict.Omq_eval.holds
    verdict.Omq_eval.exact;

  let q_who =
    Ucq.of_cq
      (Cq.make ~answer:[ "x" ]
         [ atom "works_in" [ v "x"; v "d" ]; atom "department" [ v "d" ] ])
  in
  let omq_who = Omq.full_data_schema ~ontology ~query:q_who in
  let r = Omq_eval.answer_set omq_who db in
  Fmt.pr "certain answers to who-works-in-a-department: %a@.@."
    Fmt.(list ~sep:(any ", ") (fun ppf t -> Term.pp_const ppf (List.hd t)))
    r.Omq_eval.tuples;

  (* 5. Closed world: the same TGDs as integrity constraints. On a database
     that satisfies them, evaluation is direct — and the constraints
     license removing the redundant join. *)
  let admissible_db =
    Instance.of_facts
      [
        fact "employee" [ "ada" ];
        fact "works_in" [ "ada"; "r&d" ];
        fact "works_in" [ "bob"; "sales" ];
        fact "department" [ "r&d" ];
        fact "department" [ "sales" ];
      ]
  in
  let cqs = Cqs.make ~constraints:ontology ~query:q_who in
  assert (Cqs.admissible cqs admissible_db);
  Fmt.pr "closed-world answers: %a@."
    Fmt.(list ~sep:(any ", ") (fun ppf t -> Term.pp_const ppf (List.hd t)))
    (Cqs_eval.answers cqs admissible_db);
  let optimized = Cqs_eval.optimize cqs in
  Fmt.pr "Σ-optimized query: %a@.@." Ucq.pp (Cqs.query optimized);

  (* 6. Treewidth: the measure behind every dichotomy in the paper. *)
  let grid = Workload.grid_cq 3 3 in
  Fmt.pr "3×3 grid query treewidth: %d (in CQ_3: %b, in CQ_2: %b)@."
    (Cq.treewidth grid) (Cq.in_cqk 3 grid) (Cq.in_cqk 2 grid);
  Fmt.pr "@.done.@."
