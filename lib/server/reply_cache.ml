(** Fixed-size reply cache; see the interface for the contract. *)

(* The sizes are constants: 512 KiB of ring plus a 64 KiB index per
   worker. Why these and why no flag: DESIGN.md §2.15. *)
let ring_bytes = 1 lsl 19
let slots = 1 lsl 13
let max_entry = ring_bytes / 64

(* An entry: line length (u16), body length (u16), a class byte (1 =
   partial), then the line, then the body. Entries never straddle the
   ring's end: one that does not fit in the tail starts the next lap. *)
let header = 5

(* [index.(s)] is the absolute position (bytes written since [create],
   gaps included) of the newest entry filed under slot [s], or -1. An
   entry at [a] is intact while [wpos - a <= ring_bytes]: later writes
   reach its bytes only once they are a whole ring past it. *)
type t = { ring : Bytes.t; index : int array; mutable wpos : int }

let create () =
  { ring = Bytes.create ring_bytes; index = Array.make slots (-1); wpos = 0 }

let slot line = Hashtbl.hash line land (slots - 1)

let rec same ring o line i n =
  i = n
  || Bytes.unsafe_get ring (o + i) = String.unsafe_get line i
     && same ring o line (i + 1) n

let find c line =
  let n = String.length line in
  if header + n > max_entry then -1
  else
    let a = c.index.(slot line) in
    if a < 0 || c.wpos - a > ring_bytes then -1
    else
      let o = a land (ring_bytes - 1) in
      if Bytes.get_uint16_le c.ring o = n && same c.ring (o + header) line 0 n
      then o
      else -1

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
    let o = c.wpos land (ring_bytes - 1) in
    let a = if o + len > ring_bytes then c.wpos + ring_bytes - o else c.wpos in
    let o = a land (ring_bytes - 1) in
    Bytes.set_uint16_le c.ring o n;
    Bytes.set_uint16_le c.ring (o + 2) b;
    Bytes.unsafe_set c.ring (o + 4) (if partial then '\001' else '\000');
    Bytes.blit_string line 0 c.ring (o + header) n;
    Bytes.blit_string reply skip c.ring (o + header + n) b;
    c.index.(slot line) <- a;
    c.wpos <- a + len
  end
