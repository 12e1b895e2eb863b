(** The Appendix C.5 gadget: guarded ontologies forcing exponentially long
    structures through high-arity auxiliaries.

    Appendix C.5 shows that for [k < ar(T) − 1] UCQk-approximations
    misbehave: an ontology over a 6-ary auxiliary [G] makes the chase of a
    single ternary atom produce an [S]-path of length exponential in the
    ontology (a binary counter counts chase levels), so any equivalent
    OMQ from (G, UCQ₁) needs a CQ with exponentially many atoms
    (Lemma C.8).

    This module builds the counter ontology for a parameter [n]: from
    [T1(c1,c2,c3)] the chase produces an [S]-path of exactly [2^n − 1]
    edges, from [T2] one of [2^n − 2] — two databases that every short
    tree-like query confuses but the exponentially long path query
    separates. The transcription of Σ₁ in the paper is partly garbled (and
    Σ₂ is "left to the reader"), so the rules here are a clean
    reconstruction of the same counter: bit predicates [B0_i]/[B1_i] on
    ternary nodes, one child per non-maximal counter value (via a [Step]
    trigger so the oblivious chase stays a path), increment and copy rules
    guarded by the 6-ary [G]. *)

open Relational

let v = Term.var

let atom p args = Atom.make p args

let b bit i = Printf.sprintf "B%d_%d" bit i

let xs = [ v "x1"; v "x2"; v "x3" ]
let ys = [ v "y1"; v "y2"; v "y3" ]
let g_atom = atom "G" (xs @ ys)

(** [ontology ~n] — the counter ontology (guarded; 6-ary maximum arity). *)
let ontology ~n =
  let module Tgd = Tgds.Tgd in
  let bit_x bit i = atom (b bit i) xs in
  let bit_y bit i = atom (b bit i) ys in
  (* seeds: T1 starts the counter at 0, T2 at 1 *)
  let seeds =
    List.init n (fun i -> Tgd.make ~body:[ atom "T1" xs ] ~head:[ bit_x 0 i ])
    @ (Tgd.make ~body:[ atom "T2" xs ] ~head:[ bit_x 1 0 ]
       :: List.init (n - 1) (fun i ->
              Tgd.make ~body:[ atom "T2" xs ] ~head:[ bit_x 0 (i + 1) ]))
  in
  (* a single Step trigger per node with some zero bit *)
  let steps =
    List.init n (fun i -> Tgd.make ~body:[ bit_x 0 i ] ~head:[ atom "Step" xs ])
  in
  let child =
    [ Tgd.make ~body:[ atom "Step" xs ]
        ~head:[ g_atom; atom "S" [ v "x1"; v "y1" ] ] ]
  in
  (* increment at flip position i: bits 0..i-1 are 1, bit i is 0 *)
  let ones_below i = List.init i (fun j -> bit_x 1 j) in
  let increments =
    List.init n (fun i ->
        Tgd.make
          ~body:((g_atom :: ones_below i) @ [ bit_x 0 i ])
          ~head:(bit_y 1 i :: List.init i (fun j -> bit_y 0 j)))
  in
  (* copy bits above the flip position *)
  let copies =
    List.concat
      (List.init n (fun i ->
           List.concat
             (List.init (n - i - 1) (fun d ->
                  let j = i + d + 1 in
                  List.map
                    (fun bitval ->
                      Tgd.make
                        ~body:
                          ((g_atom :: ones_below i)
                          @ [ bit_x 0 i; bit_x bitval j ])
                        ~head:[ bit_y bitval j ])
                    [ 0; 1 ]))))
  in
  seeds @ steps @ child @ increments @ copies

(** The seed databases [D1 = {T1(c1,c2,c3)}] and [D2 = {T2(c1,c2,c3)}] of
    Lemma C.8. *)
let database which =
  let t = match which with `T1 -> "T1" | `T2 -> "T2" in
  Instance.of_facts
    [ Fact.make t [ Term.Named "c1"; Term.Named "c2"; Term.Named "c3" ] ]

(** The length of the longest simple [S]-path in an instance (the chase of
    the gadget is a path, so this is its length). *)
let s_path_length inst =
  let edges = Instance.tuples "S" inst in
  let succ = Hashtbl.create 16 in
  List.iter
    (fun t -> match t with [ a; c ] -> Hashtbl.replace succ a c | _ -> ())
    edges;
  let targets =
    List.filter_map (fun t -> match t with [ _; c ] -> Some c | _ -> None) edges
  in
  let sources =
    List.filter_map (fun t -> match t with [ a; _ ] -> Some a | _ -> None) edges
  in
  let start = List.filter (fun a -> not (List.mem a targets)) sources in
  let rec walk len node =
    match Hashtbl.find_opt succ node with
    | Some next -> walk (len + 1) next
    | None -> len
  in
  List.fold_left (fun acc a -> max acc (walk 0 a)) 0 start

(** The separating path query: an [S]-path of [2^n − 1] edges (treewidth 1
    — yet exponential in the gadget's size, cf. Lemma C.8). *)
let separating_query ~n = Workload.path_cq ~pred:"S" ((1 lsl n) - 1)
