(** Frozen saturated store; see the interface for the sharing contract. *)

open Relational.Term

type t = {
  idx : Index.t;  (* sealed: no mutating operation escapes this module *)
  saturated : bool;
  universe : ConstSet.t;
}

(* A view owns the per-worker scratch: the reader (private metrics
   registry) and the enumeration context (compiled universe, seen-set,
   answer arena) — so a served request reuses both across its worker's
   whole lifetime instead of rebuilding them per call. *)
type view = {
  snap : t;
  ridx : Index.t;  (* Index.reader of snap.idx *)
  cx : Enumerate.ctx;  (* bound to ridx: probes file to the view registry *)
}

let freeze ~saturated ~universe idx = { idx; saturated; universe }
let saturated s = s.saturated
let universe s = s.universe
let size s = Index.size s.idx
let symtab s = Index.symtab s.idx

let view s =
  let ridx = Index.reader s.idx in
  { snap = s; ridx; cx = Enumerate.ctx ~universe:s.universe ridx }

let view_metrics v = Index.metrics v.ridx

let ucq_i ?budget ?obs v q = Enumerate.ucq_interned ?budget ?obs v.cx q
