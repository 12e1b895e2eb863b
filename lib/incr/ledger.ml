(** The derivation ledger as a columnar arena; see the interface for the
    contract.

    Layout. Each rule [r] owns one {!Engine.Vec} of fixed-width blocks,
    one block per derivation:

    {v
    [ cell 0 … cell c-1 | edge 0 | … | edge b-1 | edge b | … | edge b+o-1 ]
    v}

    with [c] binding cells, [b] body edges and [o] out edges. An edge is
    three ints, [fact; prev; next]: the handle of the fact, and the
    neighbours in that fact's intrusive, doubly linked list, the
    {e consuming} list for a body edge and the {e producing} list for an
    out edge. A second atom grounding to the same fact as an earlier one
    on the same side gets an unlinked edge whose fact is [-1]. Edges are
    named by [off lsl rbits lor r], with [off] the offset of the edge in
    the arena of rule [r]; a derivation by its block's offset the same
    way. The first word of a live block is a cell or the handle of its
    first edge, so it is [>= 0]; a freed block holds [-2 - next] there,
    the free list of its arena threaded through the first words.

    Per fact, two words in a column per relation id, at the fact's row:
    [A = (producing head + 1) lsl 1 lor base] and
    [B = consuming head + 1], both 0 for a row that holds no stored fact;
    [B = -1] marks a fact retracted by the running over-delete. *)

module Vec = Engine.Vec
module Index = Engine.Index
module Saturate = Engine.Saturate

type shape = { cells : int; body : int; outs : int }

type arena = {
  a_cells : int;
  a_body : int;
  a_width : int;
  a_blocks : Vec.t;
  mutable a_free : int;  (* offset of the first free block, -1 for none *)
}

type t = {
  arenas : arena array;
  rbits : int;  (* low bits of an id or edge name holding the rule *)
  mutable facts : Vec.t array;  (* relation id -> two words per row *)
  mutable live : int;
  mutable bases : int;
}

let create shapes =
  let rbits = ref 0 in
  while 1 lsl !rbits < Array.length shapes do
    incr rbits
  done;
  {
    arenas =
      Array.map
        (fun s ->
          {
            a_cells = s.cells;
            a_body = s.body;
            a_width = s.cells + (3 * (s.body + s.outs));
            a_blocks = Vec.create ();
            a_free = -1;
          })
        shapes;
    rbits = !rbits;
    facts = [||];
    live = 0;
    bases = 0;
  }

let live led = led.live
let base_count led = led.bases

(* ---- names ------------------------------------------------------------- *)

let[@inline] rule_of led x = x land ((1 lsl led.rbits) - 1)
let[@inline] off_of led x = x lsr led.rbits
let[@inline] name led r off = (off lsl led.rbits) lor r
let[@inline] blocks led x = led.arenas.(rule_of led x).a_blocks

(* The derivation an edge belongs to: its block starts at a multiple of
   the width. *)
let deriv_of_edge led e =
  let r = rule_of led e in
  let off = off_of led e in
  name led r (off - (off mod led.arenas.(r).a_width))

(* ---- per-fact words ---------------------------------------------------- *)

let word led h i =
  let rel = Index.handle_rel h in
  if rel >= Array.length led.facts then 0
  else
    let v = led.facts.(rel) and k = (2 * Index.handle_row h) + i in
    if k >= Vec.length v then 0 else Vec.get v k

let set_word led h i x =
  let rel = Index.handle_rel h in
  if rel >= Array.length led.facts then
    led.facts <-
      Array.init (rel + 1) (fun j ->
          if j < Array.length led.facts then led.facts.(j) else Vec.create ());
  let v = led.facts.(rel) and row = Index.handle_row h in
  while Vec.length v < 2 * (row + 1) do
    Vec.push v 0
  done;
  Vec.set v ((2 * row) + i) x

let is_base led h = word led h 0 land 1 = 1

let set_base led h b =
  let w = word led h 0 in
  if (w land 1 = 1) <> b then begin
    set_word led h 0 (if b then w lor 1 else w land lnot 1);
    led.bases <- (led.bases + if b then 1 else -1)
  end

(* The head of [h]'s producing ([prod]) or consuming list, -1 for none. *)
let head led h ~prod =
  if prod then (word led h 0 asr 1) - 1 else max (-1) (word led h 1 - 1)

let set_head led h ~prod e =
  if prod then set_word led h 0 (((e + 1) lsl 1) lor (word led h 0 land 1))
  else set_word led h 1 (e + 1)

(* ---- edges ------------------------------------------------------------- *)

let[@inline] edge_fact led e = Vec.get (blocks led e) (off_of led e)
let[@inline] edge_prev led e = Vec.get (blocks led e) (off_of led e + 1)
let[@inline] edge_next led e = Vec.get (blocks led e) (off_of led e + 2)
let[@inline] set_prev led e x = Vec.set (blocks led e) (off_of led e + 1) x
let[@inline] set_next led e x = Vec.set (blocks led e) (off_of led e + 2) x

(* Push edge [e] onto the front of [h]'s list. *)
let link led h ~prod e =
  let v = blocks led e and off = off_of led e in
  let next = head led h ~prod in
  Vec.set v off h;
  Vec.set v (off + 1) (-1);
  Vec.set v (off + 2) next;
  if next >= 0 then set_prev led next e;
  set_head led h ~prod e

let unlink led ~prod e =
  let prev = edge_prev led e and next = edge_next led e in
  if prev < 0 then set_head led (edge_fact led e) ~prod next else set_next led prev next;
  if next >= 0 then set_prev led next prev

(* ---- derivations ------------------------------------------------------- *)

let rule = rule_of
let cells led d = led.arenas.(rule_of led d).a_cells
let cell led d i = Vec.get (blocks led d) (off_of led d + i)

(* [f h acc] over the facts of [d]'s linked body ([prod = false]) or
   out edges. *)
let fold_side ~prod led d f acc =
  let a = led.arenas.(rule_of led d) and off = off_of led d in
  let acc = ref acc in
  for j = (if prod then a.a_body else 0) to
      (if prod then (a.a_width - a.a_cells) / 3 else a.a_body) - 1 do
    let h = Vec.get a.a_blocks (off + a.a_cells + (3 * j)) in
    if h >= 0 then acc := f h !acc
  done;
  !acc

let fold_body led d f acc = fold_side ~prod:false led d f acc
let fold_outs led d f acc = fold_side ~prod:true led d f acc

(* A block of rule [r], from the free list when it has one. *)
let alloc led r =
  let a = led.arenas.(r) in
  let off =
    if a.a_free >= 0 then begin
      let off = a.a_free in
      a.a_free <- -2 - Vec.get a.a_blocks off;
      off
    end
    else begin
      let off = Vec.length a.a_blocks in
      for _ = 1 to a.a_width do
        Vec.push a.a_blocks 0
      done;
      off
    end
  in
  led.live <- led.live + 1;
  off

(* Fill edge [j] of the block at [off] with [h] (or leave it unlinked
   when [h] repeats a fact of the same side). *)
let fill led r off j ~prod ~repeats h =
  let a = led.arenas.(r) in
  let e = name led r (off + a.a_cells + (3 * j)) in
  if repeats then begin
    Vec.set a.a_blocks (off_of led e) (-1);
    set_prev led e (-1);
    set_next led e (-1)
  end
  else link led h ~prod e

(* Is [h] among [get fr k] for [k] in [k..j)? *)
let rec repeats get fr h k j = k < j && (get fr k = h || repeats get fr h (k + 1) j)

let file led fr =
  let r = Saturate.fire_rule fr in
  let a = led.arenas.(r) in
  let off = alloc led r in
  for i = 0 to a.a_cells - 1 do
    Vec.set a.a_blocks (off + i) (Saturate.fire_cell fr i)
  done;
  for j = 0 to Saturate.fire_bodies fr - 1 do
    let h = Saturate.fire_body fr j in
    fill led r off j ~prod:false ~repeats:(repeats Saturate.fire_body fr h 0 j) h
  done;
  for j = 0 to Saturate.fire_outs fr - 1 do
    let h = Saturate.fire_out fr j in
    fill led r off (a.a_body + j) ~prod:true
      ~repeats:(repeats Saturate.fire_out fr h 0 j) h
  done

let add led ~rule:r ~cells ~body ~outs =
  if r < 0 || r >= Array.length led.arenas then
    invalid_arg "Ledger.add: a rule outside the program";
  let a = led.arenas.(r) in
  let nouts = (a.a_width - a.a_cells) / 3 - a.a_body in
  let fits l n = List.length l <= n && (n = 0 || l <> []) in
  if Array.length cells <> a.a_cells || not (fits body a.a_body && fits outs nouts)
  then invalid_arg "Ledger.add: a derivation that does not fit its rule";
  let off = alloc led r in
  Array.iteri (fun i c -> Vec.set a.a_blocks (off + i) c) cells;
  let side l n ~prod ~first =
    let l = Array.of_list l in
    for j = 0 to n - 1 do
      let h = if j < Array.length l then l.(j) else -1 in
      let rec repeats k = k < j && (l.(k) = h || repeats (k + 1)) in
      fill led r off (first + j) ~prod ~repeats:(h < 0 || repeats 0) h
    done
  in
  side body a.a_body ~prod:false ~first:0;
  side outs nouts ~prod:true ~first:a.a_body

let kill led d =
  let r = rule_of led d and off = off_of led d in
  let a = led.arenas.(r) in
  let n = (a.a_width - a.a_cells) / 3 in
  for j = 0 to n - 1 do
    let eo = off + a.a_cells + (3 * j) in
    if Vec.get a.a_blocks eo >= 0 then unlink led ~prod:(j >= a.a_body) (name led r eo)
  done;
  Vec.set a.a_blocks off (-2 - a.a_free);
  a.a_free <- off;
  led.live <- led.live - 1

let iter led f =
  Array.iteri
    (fun r a ->
      let off = ref 0 in
      while !off < Vec.length a.a_blocks do
        if Vec.get a.a_blocks !off >= 0 then f (name led r !off);
        off := !off + a.a_width
      done)
    led.arenas

(* ---- per-fact lists ---------------------------------------------------- *)

let fold_list led e f acc =
  let rec go e acc =
    if e < 0 then acc else go (edge_next led e) (f (deriv_of_edge led e) acc)
  in
  go e acc

let fold_producers led h f acc = fold_list led (head led h ~prod:true) f acc

let retract led h f =
  let rec drain () =
    let e = head led h ~prod:false in
    if e >= 0 then begin
      let d = deriv_of_edge led e in
      fold_outs led d (fun o () -> f o) ();
      kill led d;
      drain ()
    end
  in
  drain ();
  set_word led h 1 (-1)

let retracted led h = word led h 1 = -1

type saved = int

let detach led h =
  let w = word led h 0 in
  set_word led h 0 0;
  set_word led h 1 0;
  if w land 1 = 1 then led.bases <- led.bases - 1;
  w

let saved_base w = w land 1 = 1
let saved_supported w = w asr 1 > 0
let fold_saved_producers led w f acc = fold_list led ((w asr 1) - 1) f acc

let attach led h w =
  set_word led h 0 w;
  if w land 1 = 1 then led.bases <- led.bases + 1;
  let rec patch e =
    if e >= 0 then begin
      Vec.set (blocks led e) (off_of led e) h;
      patch (edge_next led e)
    end
  in
  patch ((w asr 1) - 1)

let iter_base led f =
  Array.iteri
    (fun rel v ->
      for row = 0 to (Vec.length v / 2) - 1 do
        if Vec.get v (2 * row) land 1 = 1 then f (Index.handle_of ~rel ~row)
      done)
    led.facts

(* ---- accounting and audit ---------------------------------------------- *)

let words led =
  let cap = Array.fold_left (fun acc v -> acc + Vec.capacity v) 0 led.facts in
  Array.fold_left
    (fun acc a -> acc + Vec.capacity a.a_blocks)
    (cap + Obj.reachable_words (Obj.repr led))
    led.arenas

let audit led ~stored =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
  (* every edge of a live derivation is on its fact's list *)
  iter led (fun d ->
      let a = led.arenas.(rule_of led d) in
      for j = 0 to ((a.a_width - a.a_cells) / 3) - 1 do
        let e = name led (rule_of led d) (off_of led d + a.a_cells + (3 * j)) in
        let h = edge_fact led e and prod = j >= a.a_body in
        if h >= 0 then begin
          if not (stored h) then err "derivation %d names the unstored fact %d" d h;
          let rec on_list x = x >= 0 && (x = e || on_list (edge_next led x)) in
          if not (on_list (head led h ~prod)) then
            err "edge %d of derivation %d is missing from its fact's list" j d
        end
      done);
  (* every list of a stored fact holds live blocks, consistently linked;
     a row holding no stored fact has no words *)
  let lists = ref 0 in
  Array.iteri
    (fun rel v ->
      for row = 0 to (Vec.length v / 2) - 1 do
        let h = Index.handle_of ~rel ~row in
        if not (stored h) then begin
          if word led h 0 <> 0 || word led h 1 <> 0 then
            err "the free row of handle %d keeps ledger words" h
        end
        else
          List.iter
            (fun prod ->
              let rec walk prev e =
                if e >= 0 then begin
                  incr lists;
                  let d = deriv_of_edge led e in
                  if Vec.get (blocks led d) (off_of led d) < 0 then
                    err "fact %d reaches the freed block %d" h d;
                  if edge_fact led e <> h then
                    err "edge %d of fact %d names another fact" e h;
                  if edge_prev led e <> prev then
                    err "edge %d has a stale back link" e;
                  walk e (edge_next led e)
                end
              in
              walk (-1) (head led h ~prod))
            [ true; false ]
      done)
    led.facts;
  let edges = ref 0 in
  let count _ n = n + 1 in
  iter led (fun d -> edges := fold_body led d count (fold_outs led d count !edges));
  if !edges <> !lists then
    err "%d linked edges but %d list entries" !edges !lists;
  let n = ref 0 in
  iter led (fun _ -> incr n);
  if !n <> led.live then err "%d live blocks but a live count of %d" !n led.live;
  let b = ref 0 in
  iter_base led (fun _ -> incr b);
  if !b <> led.bases then err "%d base facts but a base count of %d" !b led.bases;
  List.rev !errs
