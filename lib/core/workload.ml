(** Synthetic workload generators for the test and benchmark suites:
    query families of bounded and unbounded treewidth, TGD families from
    the paper's classes, scalable databases, and random graphs for
    p-Clique. All generators are deterministic given their seed. *)

open Relational
open Relational.Term
module Tgd = Tgds.Tgd

let v = Term.var
let atom p args = Atom.make p args
let named s = Named s
let fact p args = Fact.make p (List.map named args)

(* ------------------------------------------------------------------ *)
(* Query families                                                       *)
(* ------------------------------------------------------------------ *)

(** Boolean path query of [n] edges over binary [pred]. *)
let path_cq ?(pred = "E") n =
  Cq.make
    (List.init n (fun i ->
         atom pred [ v (Printf.sprintf "x%d" i); v (Printf.sprintf "x%d" (i + 1)) ]))

(** Boolean [n × m] grid query over binary [X] (vertical) and [Y]
    (horizontal) — the unbounded-treewidth family of §6 (treewidth
    [min n m] as [n,m] grow). *)
let grid_cq ?(xpred = "X") ?(ypred = "Y") n m =
  let at i j = Printf.sprintf "g%d_%d" i j in
  let atoms =
    List.concat_map
      (fun i ->
        List.concat_map
          (fun j ->
            (if i < n - 1 then [ atom xpred [ v (at i j); v (at (i + 1) j) ] ] else [])
            @
            if j < m - 1 then [ atom ypred [ v (at i j); v (at i (j + 1)) ] ] else [])
          (List.init m Fun.id))
      (List.init n Fun.id)
  in
  Cq.make atoms

(** Boolean [k]-clique query over binary [E] (treewidth [k−1]). *)
let clique_cq ?(pred = "E") k =
  let atoms =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j ->
            if i < j then
              Some (atom pred [ v (Printf.sprintf "c%d" i); v (Printf.sprintf "c%d" j) ])
            else None)
          (List.init k Fun.id))
      (List.init k Fun.id)
  in
  Cq.make atoms

(** Star query: center joined to [n] leaves. *)
let star_cq ?(pred = "E") n =
  Cq.make
    (List.init n (fun i -> atom pred [ v "center"; v (Printf.sprintf "leaf%d" i) ]))

(* ------------------------------------------------------------------ *)
(* Databases                                                            *)
(* ------------------------------------------------------------------ *)

(** Path database: [E(a0,a1), …, E(a_{n-1},a_n)]. *)
let path_db ?(pred = "E") n =
  Instance.of_facts
    (List.init n (fun i ->
         fact pred [ "a" ^ string_of_int i; "a" ^ string_of_int (i + 1) ]))

(** [n × m] grid database over [X]/[Y] matching {!grid_cq}. *)
let grid_db ?(xpred = "X") ?(ypred = "Y") n m =
  let at i j = Printf.sprintf "a%d_%d" i j in
  Instance.of_facts
    (List.concat_map
       (fun i ->
         List.concat_map
           (fun j ->
             (if i < n - 1 then [ fact xpred [ at i j; at (i + 1) j ] ] else [])
             @ if j < m - 1 then [ fact ypred [ at i j; at i (j + 1) ] ] else [])
           (List.init m Fun.id))
       (List.init n Fun.id))

(** Pseudo-random database over a binary predicate: [size] facts over
    [dom] constants (deterministic in [seed]). *)
let random_binary_db ?(pred = "E") ~dom ~size ~seed () =
  let st = Random.State.make [| seed |] in
  let c () = "b" ^ string_of_int (Random.State.int st dom) in
  Instance.of_facts (List.init size (fun _ -> fact pred [ c (); c () ]))

(* ------------------------------------------------------------------ *)
(* Graphs for p-Clique                                                  *)
(* ------------------------------------------------------------------ *)

(** Erdős–Rényi-style graph on [n] vertices, each edge present with
    probability [p]. *)
let random_graph ~n ~p ~seed =
  let st = Random.State.make [| seed |] in
  let g = ref Qgraph.Graph.empty in
  for i = 0 to n - 1 do
    g := Qgraph.Graph.add_vertex !g i;
    for j = i + 1 to n - 1 do
      if Random.State.float st 1.0 < p then g := Qgraph.Graph.add_edge !g i j
    done
  done;
  !g

(** Random graph with a planted [k]-clique on the first [k] vertices. *)
let planted_clique ~n ~k ~p ~seed =
  let g = ref (random_graph ~n ~p ~seed) in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      g := Qgraph.Graph.add_edge !g i j
    done
  done;
  !g

(* ------------------------------------------------------------------ *)
(* TGD families                                                         *)
(* ------------------------------------------------------------------ *)

(** Chain of inclusion dependencies (linear ⊂ guarded):
    [R_i(x,y) → ∃z R_{i+1}(y,z)] for [i < depth]. *)
let linear_chain ~depth =
  List.init depth (fun i ->
      Tgd.make
        ~body:[ atom (Printf.sprintf "R%d" i) [ v "x"; v "y" ] ]
        ~head:[ atom (Printf.sprintf "R%d" (i + 1)) [ v "y"; v "z" ] ])

(** Guarded full family: marker propagation along edges,
    [E(x,y), P_i(x) → P_{i+1}(y)] (guarded by [E(x,y)], full). *)
let guarded_full_chain ~depth =
  Tgd.make ~body:[ atom "E" [ v "x"; v "y" ] ] ~head:[ atom "P0" [ v "x" ] ]
  :: List.init depth (fun i ->
         Tgd.make
           ~body:[ atom "E" [ v "x"; v "y" ]; atom (Printf.sprintf "P%d" i) [ v "x" ] ]
           ~head:[ atom (Printf.sprintf "P%d" (i + 1)) [ v "y" ] ])

(** A small university ontology (guarded, existential, terminating on the
    shipped data): the running example of the [examples/] directory. *)
let university_ontology () =
  [
    (* every professor teaches something *)
    Tgd.make ~body:[ atom "Prof" [ v "x" ] ] ~head:[ atom "Teaches" [ v "x"; v "c" ] ];
    (* whatever is taught is a course *)
    Tgd.make ~body:[ atom "Teaches" [ v "x"; v "c" ] ] ~head:[ atom "Course" [ v "c" ] ];
    (* every course is offered by a department *)
    Tgd.make ~body:[ atom "Course" [ v "c" ] ] ~head:[ atom "OfferedBy" [ v "c"; v "d" ] ];
    (* offering departments are departments *)
    Tgd.make ~body:[ atom "OfferedBy" [ v "c"; v "d" ] ] ~head:[ atom "Dept" [ v "d" ] ];
    (* teachers are faculty members *)
    Tgd.make ~body:[ atom "Teaches" [ v "x"; v "c" ] ] ~head:[ atom "Faculty" [ v "x" ] ];
  ]

(** Guarded ontology with an infinite chase (manager chains) — exercises
    ground closure and finite witnesses. *)
let manager_ontology () =
  [
    Tgd.make ~body:[ atom "Emp" [ v "x" ] ] ~head:[ atom "ReportsTo" [ v "x"; v "m" ] ];
    Tgd.make
      ~body:[ atom "ReportsTo" [ v "x"; v "m" ] ]
      ~head:[ atom "Emp" [ v "m" ] ];
    Tgd.make
      ~body:[ atom "ReportsTo" [ v "x"; v "m" ] ]
      ~head:[ atom "Managed" [ v "x" ] ];
  ]

(** Referential integrity constraints for the closed-world examples. *)
let referential_constraints () =
  [
    (* every order references an existing customer *)
    Tgd.make
      ~body:[ atom "Order" [ v "o"; v "c" ] ]
      ~head:[ atom "Customer" [ v "c" ] ];
    (* every order line references an existing order *)
    Tgd.make
      ~body:[ atom "Line" [ v "l"; v "o" ] ]
      ~head:[ atom "Order" [ v "o"; v "c" ] ];
  ]

(** A LUBM-flavoured scalable academic workload: [universities]
    universities, each with departments, professors, courses and students;
    returns the database together with the matching guarded ontology
    (a superset of {!university_ontology} with student/advisor axioms). *)
let lubm ~universities ?(depts_per_univ = 2) ?(profs_per_dept = 3)
    ?(students_per_dept = 5) () =
  let ontology =
    university_ontology ()
    @ [
        (* students take courses *)
        Tgd.make ~body:[ atom "Student" [ v "s" ] ]
          ~head:[ atom "Takes" [ v "s"; v "c" ] ];
        Tgd.make ~body:[ atom "Takes" [ v "s"; v "c" ] ]
          ~head:[ atom "Course" [ v "c" ] ];
        (* every student has an advisor who is faculty *)
        Tgd.make ~body:[ atom "Student" [ v "s" ] ]
          ~head:[ atom "AdvisedBy" [ v "s"; v "a" ] ];
        Tgd.make
          ~body:[ atom "AdvisedBy" [ v "s"; v "a" ] ]
          ~head:[ atom "Faculty" [ v "a" ] ];
        (* members of a department *)
        Tgd.make
          ~body:[ atom "MemberOf" [ v "x"; v "d" ] ]
          ~head:[ atom "Dept" [ v "d" ] ];
      ]
  in
  let facts = ref [] in
  for u = 0 to universities - 1 do
    for d = 0 to depts_per_univ - 1 do
      let dept = Printf.sprintf "dept_%d_%d" u d in
      facts := fact "Dept" [ dept ] :: !facts;
      for p = 0 to profs_per_dept - 1 do
        let prof = Printf.sprintf "prof_%d_%d_%d" u d p in
        let course = Printf.sprintf "course_%d_%d_%d" u d p in
        facts :=
          fact "Prof" [ prof ]
          :: fact "MemberOf" [ prof; dept ]
          :: fact "Teaches" [ prof; course ]
          :: !facts
      done;
      for st = 0 to students_per_dept - 1 do
        let student = Printf.sprintf "student_%d_%d_%d" u d st in
        facts :=
          fact "Student" [ student ]
          :: fact "MemberOf" [ student; dept ]
          :: (if st mod 2 = 0 then
                [ fact "Takes" [ student; Printf.sprintf "course_%d_%d_0" u d ] ]
              else [])
          @ !facts
      done
    done
  done;
  (ontology, Instance.of_facts !facts)
