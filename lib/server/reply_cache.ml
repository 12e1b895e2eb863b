(** Fixed-size reply cache; see the interface for the contract. *)

(* The sizes are constants: 512 KiB of ring plus a 128 KiB index per
   worker. Why these and why no flag: DESIGN.md §2.15. *)
let ring_bytes = 1 lsl 19
let slots = 1 lsl 14
let max_entry = ring_bytes / 64

(* An entry: line length (u16), body length (u16), a class byte (1 =
   partial), then the line, then the body. Entries never straddle the
   ring's end: one that does not fit in the tail starts the next lap. *)
let header = 5

(* [index.(s)] is the absolute position (bytes written since [create],
   gaps included) of the entry filed under slot [s], or -1. An entry at
   [a] is intact while [wpos - a <= ring_bytes]: later writes reach its
   bytes only once they are a whole ring past it. A line is filed under
   at most one of its two candidate slots. *)
type t = { ring : Bytes.t; index : int array; mutable wpos : int }

let create () =
  { ring = Bytes.create ring_bytes; index = Array.make slots (-1); wpos = 0 }

let slot line = Hashtbl.hash line land (slots - 1)
let alt_slot line = Hashtbl.seeded_hash 0x2545f491 line land (slots - 1)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external sget64 : string -> int -> int64 = "%caml_string_get64u"

(* whether the [n] ring bytes from [o] spell [line], from byte [i] on:
   8 bytes at a time, the last word overlapping the one before it *)
let rec same ring o line n i =
  if i >= n - 8 then Int64.equal (get64 ring (o + n - 8)) (sget64 line (n - 8))
  else
    Int64.equal (get64 ring (o + i)) (sget64 line i) && same ring o line n (i + 8)

(* the same for a line shorter than a word *)
let same_short ring o line n =
  let i = ref 0 in
  while !i < n && Bytes.unsafe_get ring (o + !i) = String.unsafe_get line !i do
    incr i
  done;
  !i = n

let dead c s =
  let a = Array.unsafe_get c.index s in
  a < 0 || c.wpos - a > ring_bytes

(* whether slot [s] holds a live entry for [line], of length [n] *)
let holds c s line n =
  (not (dead c s))
  &&
  let o = Array.unsafe_get c.index s land (ring_bytes - 1) in
  Bytes.get_uint16_le c.ring o = n
  &&
  if n < 8 then same_short c.ring (o + header) line n
  else same c.ring (o + header) line n 0

(* where the next entry of [len] bytes goes: at [wpos], or at the next
   lap's start when it does not fit in the tail *)
let place c len =
  let o = c.wpos land (ring_bytes - 1) in
  if o + len > ring_bytes then c.wpos + ring_bytes - o else c.wpos

let find c line =
  let n = String.length line in
  if header + n > max_entry then -1
  else
    let s =
      let s1 = slot line in
      if holds c s1 line n then s1
      else
        let s2 = alt_slot line in
        if holds c s2 line n then s2 else -1
    in
    if s < 0 then -1
    else
      let a = c.index.(s) in
      let o = a land (ring_bytes - 1) in
      if c.wpos - a <= ring_bytes / 2 then o
      else begin
        (* second chance: an entry in the ring's older half moves to its
           head. [Bytes.blit] is memmove-safe, so an entry at the write
           frontier, whose copy overlaps it, copies whole *)
        let len = header + n + Bytes.get_uint16_le c.ring (o + 2) in
        let a = place c len in
        let o' = a land (ring_bytes - 1) in
        Bytes.blit c.ring o c.ring o' len;
        c.index.(s) <- a;
        c.wpos <- a + len;
        o'
      end

let partial c o = Bytes.get c.ring (o + 4) = '\001'

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

let reply c o ~id =
  let n = Bytes.get_uint16_le c.ring o
  and b = Bytes.get_uint16_le c.ring (o + 2) in
  let k = digits id in
  let r = Bytes.create (k + 1 + b) in
  let v = ref id in
  for i = k - 1 downto 0 do
    Bytes.unsafe_set r i (Char.unsafe_chr (48 + (!v mod 10)));
    v := !v / 10
  done;
  Bytes.unsafe_set r k ' ';
  Bytes.blit c.ring (o + header + n) r (k + 1) b;
  Bytes.unsafe_to_string r

let add c line ~partial reply =
  let skip = String.index reply ' ' + 1 in
  let n = String.length line and b = String.length reply - skip in
  let len = header + n + b in
  if len <= max_entry then begin
    (* the slot already holding [line], else a dead one of its two, else
       the one holding the older entry *)
    let s1 = slot line and s2 = alt_slot line in
    let s =
      if holds c s1 line n then s1
      else if holds c s2 line n then s2
      else if dead c s1 then s1
      else if dead c s2 then s2
      else if c.index.(s1) <= c.index.(s2) then s1
      else s2
    in
    let a = place c len in
    let o = a land (ring_bytes - 1) in
    Bytes.set_uint16_le c.ring o n;
    Bytes.set_uint16_le c.ring (o + 2) b;
    Bytes.unsafe_set c.ring (o + 4) (if partial then '\001' else '\000');
    Bytes.blit_string line 0 c.ring (o + header) n;
    Bytes.blit_string reply skip c.ring (o + header + n) b;
    c.index.(s) <- a;
    c.wpos <- a + len
  end
