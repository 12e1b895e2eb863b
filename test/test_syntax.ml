(* Tests for the surface-language lexer, parser, and pretty-printer. *)

open Relational

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let program =
  {|
% a small program
person/1.
knows(X,Y) -> person(X), person(Y).
person(X) -> knows(X,Z).
true -> world(W).

knows(alice,bob).
knows(bob,carol).

q(X) :- knows(X,Y), person(Y).
q(X) :- person(X), knows(X,X).
pairs(X,Y) :- knows(X,Y).
|}

let parsed () = Syntax.Parser.parse program

let test_parse_shapes () =
  let p = parsed () in
  check_int "tgds" 3 (List.length p.Syntax.Parser.tgds);
  check_int "facts" 2 (List.length p.Syntax.Parser.facts);
  check_int "queries" 2 (List.length p.Syntax.Parser.queries);
  check "schema has person/1" true (Schema.arity_of "person" p.Syntax.Parser.schema = Some 1);
  check "schema inferred knows/2" true (Schema.arity_of "knows" p.Syntax.Parser.schema = Some 2);
  check "schema inferred world/1" true (Schema.arity_of "world" p.Syntax.Parser.schema = Some 1)

let test_variables_vs_constants () =
  let p = parsed () in
  let t1 = List.hd p.Syntax.Parser.tgds in
  check "X is a variable" true
    Term.(VarSet.mem "X" (Tgds.Tgd.body_vars t1));
  let f = List.hd p.Syntax.Parser.facts in
  check "alice is a constant" true
    (List.mem (Term.Named "alice") (Fact.args f))

let test_existential_inferred () =
  let p = parsed () in
  let t2 = List.nth p.Syntax.Parser.tgds 1 in
  check "Z existential" true Term.(VarSet.mem "Z" (Tgds.Tgd.existential_vars t2));
  let t3 = List.nth p.Syntax.Parser.tgds 2 in
  check "empty body" true (Tgds.Tgd.body t3 = [])

let test_ucq_grouping () =
  let p = parsed () in
  match Syntax.Parser.query p "q" with
  | Some u ->
      check_int "two disjuncts" 2 (List.length (Ucq.disjuncts u));
      check_int "arity 1" 1 (Ucq.arity u)
  | None -> Alcotest.fail "query q missing"

let test_database () =
  let p = parsed () in
  let db = Syntax.Parser.database p in
  check_int "two facts" 2 (Instance.size db)

let test_roundtrip () =
  let p = parsed () in
  let printed = Fmt.str "%a" Syntax.Pretty.pp_program p in
  let p2 = Syntax.Parser.parse printed in
  check_int "tgds preserved" (List.length p.Syntax.Parser.tgds)
    (List.length p2.Syntax.Parser.tgds);
  check_int "facts preserved" (List.length p.Syntax.Parser.facts)
    (List.length p2.Syntax.Parser.facts);
  check "database identical" true
    (Instance.equal (Syntax.Parser.database p) (Syntax.Parser.database p2));
  (* queries survive module variable renaming: same number of disjuncts *)
  check_int "queries preserved" (List.length p.Syntax.Parser.queries)
    (List.length p2.Syntax.Parser.queries)

let test_errors () =
  let bad_cases =
    [
      "knows(X,Y.";         (* missing paren *)
      "knows(X,Y) -> .";    (* empty head *)
      "q(X) :- knows(X,Y)"; (* missing period *)
      "knows(X,bob).";      (* non-ground fact *)
      "p/x.";               (* bad arity *)
    ]
  in
  List.iter
    (fun src ->
      check (Fmt.str "rejects %S" src) true
        (try
           ignore (Syntax.Parser.parse src);
           false
         with
        | Syntax.Parser.Error _ | Syntax.Lexer.Error _ | Invalid_argument _ ->
            true))
    bad_cases

(* The parser pulls the lexer one lexeme at a time, so the first error
   in source order is the one reported. When the lexer ran over the
   whole input first, a bad character anywhere won over an earlier parse
   error: case 1 read "3:6 unexpected character '&'". An error found
   after a lexeme was taken names that lexeme, not the one after it:
   case 3 read "1:6 … (found identifier "is")". The mutation lines are
   read one at a time by [serve], whose --strict-log diagnostic is built
   from the message and the column. *)
let first_error f =
  match f () with
  | _ -> "no error"
  | exception (Syntax.Parser.Error (msg, l, c) | Syntax.Lexer.Error (msg, l, c))
    ->
      Fmt.str "%d:%d %s" l c msg

let test_error_order () =
  Alcotest.(check string)
    "a parse error before a bad character wins"
    {|1:12 expected '->' (found identifier "r")|}
    (first_error (fun () ->
         Syntax.Parser.parse "p(a), q(b) r(c).\nfact(a).\ns(d) & t.\n"));
  Alcotest.(check string)
    "a lone bad character keeps its position" "2:6 unexpected character '&'"
    (first_error (fun () -> Syntax.Parser.parse "p(a).\nq(b) & r.\n"));
  Alcotest.(check string)
    "a malformed mutation line"
    {|1:1 expected '+' or '-' starting a mutation (found identifier "this")|}
    (first_error (fun () ->
         Syntax.Parser.parse_mutations "this is not a mutation"));
  Alcotest.(check string)
    "a missing term names the second comma" "1:6 expected a term (found ',')"
    (first_error (fun () -> Syntax.Parser.parse "p(a, ,b)."));
  Alcotest.(check string)
    "a non-ground mutation names its period"
    "1:13 a mutation must be ground (found '.')"
    (first_error (fun () -> Syntax.Parser.parse_mutations "+prof(ada,X)."));
  Alcotest.(check string)
    "a bad character in a mutation line" "1:12 unexpected character '&'"
    (first_error (fun () -> Syntax.Parser.parse_mutations "-prof(ada) & x."))

let test_comments_and_whitespace () =
  let p = Syntax.Parser.parse "% only a comment\n\n  \t\n" in
  check_int "empty program" 0 (List.length p.Syntax.Parser.facts);
  let p2 = Syntax.Parser.parse "a(b). % trailing comment" in
  check_int "one fact" 1 (List.length p2.Syntax.Parser.facts)

let test_zero_ary () =
  let p = Syntax.Parser.parse "e(X,Y) -> goal. start. q() :- goal." in
  check_int "one tgd" 1 (List.length p.Syntax.Parser.tgds);
  check "goal is 0-ary" true (Schema.arity_of "goal" p.Syntax.Parser.schema = Some 0);
  check "start fact" true
    (Instance.mem (Fact.make "start" []) (Syntax.Parser.database p))

(* ------------------------------------------------------------------ *)
(* Property: pretty-print/parse round trip on random programs            *)
(* ------------------------------------------------------------------ *)

let gen_program =
  QCheck.Gen.(
    let preds = [ ("edge", 2); ("node", 1); ("lab", 2) ] in
    let consts = [ "a"; "b"; "c" ] in
    let vars = [ "X"; "Y"; "Z" ] in
    let gen_pred = map (List.nth preds) (int_range 0 2) in
    let gen_fact =
      let* p, ar = gen_pred in
      let* args = list_repeat ar (map (List.nth consts) (int_range 0 2)) in
      return (Fact.make p (List.map (fun c -> Term.Named c) args))
    in
    let gen_var_atom =
      let* p, ar = gen_pred in
      let* args = list_repeat ar (map (List.nth vars) (int_range 0 2)) in
      return (Atom.make p (List.map Term.var args))
    in
    let gen_tgd =
      let* body = list_size (int_range 1 2) gen_var_atom in
      let* head = list_size (int_range 1 2) gen_var_atom in
      return (Tgds.Tgd.make ~body ~head)
    in
    let* facts = list_size (int_range 1 4) gen_fact in
    let* tgds = list_size (int_range 0 3) gen_tgd in
    let* q_atoms = list_size (int_range 1 2) gen_var_atom in
    let program =
      {
        Syntax.Parser.schema = Schema.of_list preds;
        tgds;
        facts;
        queries = [ ("q", Ucq.of_cq (Cq.make q_atoms)) ];
      }
    in
    return program)

let prop_pp_parse_roundtrip =
  QCheck.Test.make ~name:"pretty-print then parse preserves the program"
    ~count:100
    (QCheck.make ~print:(Fmt.str "%a" Syntax.Pretty.pp_program) gen_program)
    (fun p ->
      let p2 = Syntax.Parser.parse (Fmt.str "%a" Syntax.Pretty.pp_program p) in
      let db = Syntax.Parser.database p and db2 = Syntax.Parser.database p2 in
      Instance.equal db db2
      && List.length p.Syntax.Parser.tgds = List.length p2.Syntax.Parser.tgds
      && List.for_all2
           (fun t1 t2 ->
             Tgds.Tgd.is_guarded t1 = Tgds.Tgd.is_guarded t2
             && Tgds.Tgd.is_full t1 = Tgds.Tgd.is_full t2
             && Tgds.Tgd.head_size t1 = Tgds.Tgd.head_size t2)
           p.Syntax.Parser.tgds p2.Syntax.Parser.tgds
      &&
      (* queries evaluate identically on the program database *)
      match (Syntax.Parser.query p "q", Syntax.Parser.query p2 "q") with
      | Some q1, Some q2 -> Ucq.holds db q1 = Ucq.holds db q2
      | _ -> false)

let prop_chase_invariant_under_roundtrip =
  QCheck.Test.make ~name:"chase certain answers invariant under round trip"
    ~count:60
    (QCheck.make ~print:(Fmt.str "%a" Syntax.Pretty.pp_program) gen_program)
    (fun p ->
      let p2 = Syntax.Parser.parse (Fmt.str "%a" Syntax.Pretty.pp_program p) in
      match (Syntax.Parser.query p "q", Syntax.Parser.query p2 "q") with
      | Some q1, Some q2 ->
          let v1, s1 =
            Tgds.Chase.certain ~max_level:4 ~max_facts:500 p.Syntax.Parser.tgds
              (Syntax.Parser.database p) q1 []
          in
          let v2, s2 =
            Tgds.Chase.certain ~max_level:4 ~max_facts:500 p2.Syntax.Parser.tgds
              (Syntax.Parser.database p2) q2 []
          in
          (not (s1 && s2)) || v1 = v2
      | _ -> false)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_pp_parse_roundtrip; prop_chase_invariant_under_roundtrip ]

let () =
  Alcotest.run "syntax"
    [
      ( "parser",
        [
          Alcotest.test_case "shapes" `Quick test_parse_shapes;
          Alcotest.test_case "variables vs constants" `Quick test_variables_vs_constants;
          Alcotest.test_case "existentials" `Quick test_existential_inferred;
          Alcotest.test_case "UCQ grouping" `Quick test_ucq_grouping;
          Alcotest.test_case "database" `Quick test_database;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "first error in source order" `Quick
            test_error_order;
          Alcotest.test_case "comments" `Quick test_comments_and_whitespace;
          Alcotest.test_case "zero-ary" `Quick test_zero_ary;
        ] );
      ("properties", qcheck_tests);
    ]
