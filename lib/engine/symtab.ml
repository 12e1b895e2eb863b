open Relational.Term

type t = {
  mutable syms : const array;  (* id -> symbol *)
  mutable n : int;
  named : (string, int) Hashtbl.t;
  mutable nulls : int array;
      (* the null column: empty until a null is interned, then slot 0
         holds the first payload [b] interned and slot [1 + i - b] the
         id + 1 of [Null i] (0 = absent) *)
  odd : (const, int) Hashtbl.t;  (* nulls with payloads below [b] *)
  mutable preds : string array;
  mutable npreds : int;
  pred_ids : (string, int) Hashtbl.t;
}

let dummy = Named ""

let create () =
  {
    syms = Array.make 16 dummy;
    n = 0;
    named = Hashtbl.create 64;
    nulls = [||];
    odd = Hashtbl.create 4;
    preds = Array.make 8 "";
    npreds = 0;
    pred_ids = Hashtbl.create 16;
  }

let size t = t.n

let append t c =
  if t.n = Array.length t.syms then begin
    let a = Array.make (2 * t.n) dummy in
    Array.blit t.syms 0 a 0 t.n;
    t.syms <- a
  end;
  t.syms.(t.n) <- c;
  t.n <- t.n + 1;
  t.n - 1

(* The null column is offset by the first null payload the store
   interns: the payload counter is process-wide, so a store built after
   other chases would otherwise hold a slot for every null issued
   before its own. *)
let null_slot t j =
  if j >= Array.length t.nulls then begin
    let len = ref (2 * Array.length t.nulls) in
    while j >= !len do
      len := 2 * !len
    done;
    let a = Array.make !len 0 in
    Array.blit t.nulls 0 a 0 (Array.length t.nulls);
    t.nulls <- a
  end

let intern_odd t c =
  match Hashtbl.find_opt t.odd c with
  | Some id -> id
  | None ->
      let id = append t c in
      Hashtbl.add t.odd c id;
      id

let intern_null t i =
  if Array.length t.nulls = 0 then begin
    t.nulls <- Array.make 16 0;
    t.nulls.(0) <- i
  end;
  let j = 1 + i - t.nulls.(0) in
  if j < 1 then intern_odd t (Null i)
  else begin
    null_slot t j;
    let v = t.nulls.(j) in
    if v <> 0 then v - 1
    else begin
      let id = append t (Null i) in
      t.nulls.(j) <- id + 1;
      id
    end
  end

let intern t c =
  match c with
  | Named s -> (
      match Hashtbl.find_opt t.named s with
      | Some id -> id
      | None ->
          let id = append t c in
          Hashtbl.add t.named s id;
          id)
  | Null i when i >= 0 -> intern_null t i
  | Null _ -> intern_odd t c

(* Is the null with payload [i] filed in the column, not in [odd]? *)
let in_column t i = Array.length t.nulls > 0 && i >= t.nulls.(0)

(* The id + 1 of the column's null with payload [i], 0 when absent. *)
let column_find t i =
  let j = 1 + i - t.nulls.(0) in
  if j < Array.length t.nulls then t.nulls.(j) else 0

let find t c =
  match c with
  | Named s -> Hashtbl.find_opt t.named s
  | Null i when in_column t i ->
      let v = column_find t i in
      if v <> 0 then Some (v - 1) else None
  | Null _ -> Hashtbl.find_opt t.odd c

let find_int t c =
  match c with
  | Named s -> ( try Hashtbl.find t.named s with Not_found -> -1)
  | Null i when in_column t i -> column_find t i - 1
  | Null _ -> ( try Hashtbl.find t.odd c with Not_found -> -1)

let extern t id =
  if id < 0 || id >= t.n then invalid_arg "Symtab.extern";
  t.syms.(id)

let intern_pred t p =
  match Hashtbl.find_opt t.pred_ids p with
  | Some id -> id
  | None ->
      if t.npreds = Array.length t.preds then begin
        let a = Array.make (2 * t.npreds) "" in
        Array.blit t.preds 0 a 0 t.npreds;
        t.preds <- a
      end;
      t.preds.(t.npreds) <- p;
      t.npreds <- t.npreds + 1;
      Hashtbl.add t.pred_ids p (t.npreds - 1);
      t.npreds - 1

let find_pred t p = Hashtbl.find_opt t.pred_ids p
let find_pred_int t p = try Hashtbl.find t.pred_ids p with Not_found -> -1

let extern_pred t id =
  if id < 0 || id >= t.npreds then invalid_arg "Symtab.extern_pred";
  t.preds.(id)

let pred_count t = t.npreds
