type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { mutable data : ba; mutable len : int; mutable dead : int }

let alloc n : ba = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let create ?(capacity = 8) () =
  let capacity = if capacity < 1 then 1 else capacity in
  { data = alloc capacity; len = 0; dead = 0 }

let length v = v.len
let live v = v.len - v.dead
let capacity v = Bigarray.Array1.dim v.data

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  Bigarray.Array1.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  Bigarray.Array1.unsafe_set v.data i x

let grow v =
  let d = alloc (2 * Bigarray.Array1.dim v.data) in
  Bigarray.Array1.blit v.data (Bigarray.Array1.sub d 0 v.len);
  v.data <- d

let push v x =
  if v.len = Bigarray.Array1.dim v.data then grow v;
  Bigarray.Array1.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop";
  v.len <- v.len - 1;
  Bigarray.Array1.unsafe_get v.data v.len

(* Drop the tombstones, keeping the live slots in order. *)
let compact v =
  let j = ref 0 in
  for i = 0 to v.len - 1 do
    let x = Bigarray.Array1.unsafe_get v.data i in
    if x >= 0 then begin
      Bigarray.Array1.unsafe_set v.data !j x;
      incr j
    end
  done;
  v.len <- !j;
  v.dead <- 0

let kill v i tomb =
  if i < 0 || i >= v.len || tomb >= 0 || Bigarray.Array1.unsafe_get v.data i < 0 then
    invalid_arg "Vec.kill";
  Bigarray.Array1.unsafe_set v.data i tomb;
  v.dead <- v.dead + 1;
  if 2 * v.dead > v.len then compact v

let iter f v =
  for i = 0 to v.len - 1 do
    f (Bigarray.Array1.unsafe_get v.data i)
  done

let to_list v =
  let rec go i acc = if i < 0 then acc else go (i - 1) (Bigarray.Array1.unsafe_get v.data i :: acc) in
  go (v.len - 1) []

let clear v =
  v.len <- 0;
  v.dead <- 0
