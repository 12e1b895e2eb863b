(* Seeded inputs for the three workloads. Everything the CLI receives is
   produced here from the seed: the lubm-shaped program (rules plus base
   facts), the request streams and the mutation log. The shape is the
   one bench/main.ml's E22 emits — 2 departments per university, 3
   professors (one course each) and 5 students per department — so
   640 universities give 29,440 base facts and 98,560 chased facts
   whatever the seed; the seed picks which courses students take, which
   entities are hot, and the order of every stream. *)

type size = {
  universities : int;
  point_stream : int;  (** request lines generated for query-point *)
  scan_stream : int;  (** request lines generated for query-scan *)
  mutations : int;  (** mutation-log length for mutate *)
  checkpoint_every : int;  (** the rotation cadence of the traced pass's WAL *)
}

let full =
  {
    universities = 640;
    point_stream = 200_000;
    scan_stream = 2_000;
    mutations = 10_000;
    (* for the traced pass's WAL, past the log's end: no rotation.
       Every rotation writes a ~20 MB image and fsyncs it, and a run of
       those writes slows the disk down run after run *)
    checkpoint_every = 20_000;
  }

let tiny =
  {
    universities = 6;
    point_stream = 400;
    scan_stream = 40;
    mutations = 60;
    checkpoint_every = 25;
  }

let rules =
  "prof(X) -> teaches(X,C).\n\
   teaches(X,C) -> course(C).\n\
   course(C) -> offeredby(C,D).\n\
   offeredby(C,D) -> dept(D).\n\
   teaches(X,C) -> faculty(X).\n\
   student(S) -> takes(S,C).\n\
   takes(S,C) -> course(C).\n\
   student(S) -> advisedby(S,A).\n\
   advisedby(S,A) -> faculty(A).\n\
   memberof(X,D) -> dept(D).\n"

let depts_per_univ = 2
let profs_per_dept = 3
let students_per_dept = 5
let dept u d = Printf.sprintf "dept_%d_%d" u d
let prof u d p = Printf.sprintf "prof_%d_%d_%d" u d p
let course u d p = Printf.sprintf "course_%d_%d_%d" u d p
let student u d s = Printf.sprintf "student_%d_%d_%d" u d s

type program = {
  text : string;  (** the whole program in surface syntax *)
  base : string array;  (** base facts, each as ["pred(a,b)"] *)
  profs : string array;
  students : string array;
  depts : string array;
  courses : string array;
}

let program rng ~universities =
  let base = ref [] in
  let add pred args =
    base := Printf.sprintf "%s(%s)" pred (String.concat "," args) :: !base
  in
  let profs = ref [] and students = ref [] and depts = ref [] in
  let courses = ref [] in
  for u = 0 to universities - 1 do
    for d = 0 to depts_per_univ - 1 do
      let dp = dept u d in
      depts := dp :: !depts;
      add "dept" [ dp ];
      for p = 0 to profs_per_dept - 1 do
        let pr = prof u d p and c = course u d p in
        profs := pr :: !profs;
        courses := c :: !courses;
        add "prof" [ pr ];
        add "memberof" [ pr; dp ];
        add "teaches" [ pr; c ]
      done;
      for s = 0 to students_per_dept - 1 do
        let st = student u d s in
        students := st :: !students;
        add "student" [ st ];
        add "memberof" [ st; dp ];
        (* every other student takes a course of their university *)
        if s mod 2 = 0 then
          add "takes"
            [
              st;
              course u
                (Random.State.int rng depts_per_univ)
                (Random.State.int rng profs_per_dept);
            ]
      done
    done
  done;
  let base = Array.of_list (List.rev !base) in
  let buf = Buffer.create (Array.length base * 32) in
  Buffer.add_string buf rules;
  Array.iter
    (fun f ->
      Buffer.add_string buf f;
      Buffer.add_string buf ".\n")
    base;
  let arr l = Array.of_list (List.rev l) in
  {
    text = Buffer.contents buf;
    base;
    profs = arr !profs;
    students = arr !students;
    depts = arr !depts;
    courses = arr !courses;
  }

(* Zipf(1) over ranks 0..n-1, as a cumulative table. *)
let zipf_cdf n =
  let w = Array.init n (fun k -> 1. /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw rng cdf =
  let u = Random.State.float rng 1. in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let shuffled rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Selective lookups: one bound constant each, 0–10 answers. *)
let point_templates =
  [|
    (* professors *)
    [|
      Printf.sprintf "answers q(C) :- teaches(%s,C).";
      Printf.sprintf "answers q(D) :- memberof(%s,D).";
      Printf.sprintf "count q(C) :- teaches(%s,C).";
    |];
    (* students *)
    [|
      Printf.sprintf "answers q(C) :- takes(%s,C).";
      Printf.sprintf "answers q(D) :- memberof(%s,D).";
      Printf.sprintf "answers q(A) :- advisedby(%s,A).";
    |];
    (* departments *)
    [|
      Printf.sprintf "answers q(X) :- memberof(X,%s).";
      Printf.sprintf "answers q(X) :- memberof(X,%s), prof(X).";
      Printf.sprintf "count q(X) :- memberof(X,%s), student(X).";
    |];
    (* courses *)
    [|
      Printf.sprintf "answers q(X) :- teaches(X,%s).";
      Printf.sprintf "answers q(S) :- takes(S,%s).";
    |];
  |]

let point_stream rng prog n =
  let classes =
    Array.map
      (fun ents -> (shuffled rng ents, zipf_cdf (Array.length ents)))
      [| prog.profs; prog.students; prog.depts; prog.courses |]
  in
  Array.init n (fun _ ->
      let c = Random.State.int rng (Array.length classes) in
      let ents, cdf = classes.(c) in
      let tpls = point_templates.(c) in
      tpls.(Random.State.int rng (Array.length tpls)) ents.(zipf_draw rng cdf))

(* Unselective requests over the whole store: scans, two-atom joins, a
   union and counts, 10^3–10^4 tuples each at full size. *)
let scan_templates =
  [|
    "answers q(X) :- prof(X).";
    "answers q(X,C) :- teaches(X,C).";
    "answers q(S,D) :- student(S), memberof(S,D).";
    "answers q(X) :- prof(X). q(X) :- student(X).";
    "count q(X) :- faculty(X).";
    "answers q(S,C) :- takes(S,C), course(C).";
    "answers q(C,X) :- course(C), teaches(X,C).";
    "count q(S) :- student(S), memberof(S,D).";
    "answers q(X,D) :- memberof(X,D).";
    "count q(D) :- dept(D).";
  |]

let scan_stream rng n =
  (* every block of consecutive lines is a seeded permutation of all the
     templates, so any prefix of the stream has the same mix *)
  let k = Array.length scan_templates in
  let block = ref [||] in
  Array.init n (fun i ->
      if i mod k = 0 then block := shuffled rng scan_templates;
      !block.(i mod k))

(* The mutation log: ~60% inserts of new professors and students; the
   deletes split evenly between entities inserted earlier in the run and
   original base facts (each deleted at most once), so every mutation
   changes the store. *)
let mutations rng prog n =
  let live = ref [||] and nlive = ref 0 in
  let push f =
    if !nlive = Array.length !live then
      live := Array.append !live (Array.make (max 16 !nlive) "");
    !live.(!nlive) <- f;
    incr nlive
  in
  let base_order = shuffled rng prog.base and next_base = ref 0 in
  let fresh = ref 0 in
  Array.init n (fun _ ->
      if Random.State.float rng 1. < 0.6 || (!nlive = 0 && !next_base >= Array.length base_order)
      then begin
        incr fresh;
        let f =
          if Random.State.bool rng then Printf.sprintf "prof(prof_new_%d)" !fresh
          else Printf.sprintf "student(student_new_%d)" !fresh
        in
        push f;
        "+" ^ f ^ "."
      end
      else if (Random.State.bool rng && !nlive > 0) || !next_base >= Array.length base_order
      then begin
        let i = Random.State.int rng !nlive in
        let f = !live.(i) in
        decr nlive;
        !live.(i) <- !live.(!nlive);
        "-" ^ f ^ "."
      end
      else begin
        let f = base_order.(!next_base) in
        incr next_base;
        "-" ^ f ^ "."
      end)
