type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Slot [i] holds its key at [2i] and the key's value at [2i + 1]; an
   empty slot holds [-1] in both, so a probe that ends on one reads the
   "unbound" answer from it. The capacity is [1 lsl bits] slots. *)
type t = { mutable slots : ba; mutable bits : int; mutable count : int }

let empty = -1
let[@inline] get (s : ba) i = Bigarray.Array1.unsafe_get s i
let[@inline] set (s : ba) i x = Bigarray.Array1.unsafe_set s i x

let alloc bits : ba =
  let s = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (2 lsl bits) in
  Bigarray.Array1.fill s empty;
  s

let create () = { slots = alloc 3; bits = 3; count = 0 }
let length t = t.count

(* Fibonacci hashing: the top [bits] bits of the key times 2^62/phi
   (mod 2^63), which spreads dense cell ids evenly. *)
let[@inline] home bits k = (k * 0x278DDE6E5FD29F05) lsr (63 - bits)

(* The slot holding [k], or the empty slot that ends its probe run (the
   table is never full, so there is one). *)
let[@inline] slot_of s bits k =
  let mask = (1 lsl bits) - 1 in
  let i = ref (home bits k) in
  while
    let k' = get s (2 * !i) in
    k' <> k && k' <> empty
  do
    i := (!i + 1) land mask
  done;
  !i

let find t k =
  let s = t.slots in
  get s ((2 * slot_of s t.bits k) + 1)

let grow t =
  let old = t.slots and bits = t.bits + 1 in
  let s = alloc bits in
  for i = 0 to (1 lsl t.bits) - 1 do
    let k = get old (2 * i) in
    if k <> empty then begin
      let j = slot_of s bits k in
      set s (2 * j) k;
      set s ((2 * j) + 1) (get old ((2 * i) + 1))
    end
  done;
  t.slots <- s;
  t.bits <- bits

let rec replace t k v =
  if k < 0 then invalid_arg "Itab.replace: negative key";
  let s = t.slots in
  let i = slot_of s t.bits k in
  if get s (2 * i) = k then set s ((2 * i) + 1) v
  else if 4 * (t.count + 1) > 3 lsl t.bits then begin
    grow t;
    replace t k v
  end
  else begin
    set s (2 * i) k;
    set s ((2 * i) + 1) v;
    t.count <- t.count + 1
  end

(* Backward-shift deletion: walk the probe run after the hole and move
   back every member whose home does not lie cyclically in (hole, its
   slot], so no probe run is ever cut short and no tombstone is left. *)
let remove t k =
  let s = t.slots and bits = t.bits in
  let mask = (1 lsl bits) - 1 in
  let hole = ref (slot_of s bits k) in
  if k >= 0 && get s (2 * !hole) = k then begin
    t.count <- t.count - 1;
    let j = ref ((!hole + 1) land mask) in
    while get s (2 * !j) <> empty do
      let h = home bits (get s (2 * !j)) and i = !hole in
      let stays = if i <= !j then i < h && h <= !j else i < h || h <= !j in
      if not stays then begin
        set s (2 * i) (get s (2 * !j));
        set s ((2 * i) + 1) (get s ((2 * !j) + 1));
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    set s (2 * !hole) empty;
    set s ((2 * !hole) + 1) empty
  end
