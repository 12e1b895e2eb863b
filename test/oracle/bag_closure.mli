(** The bag fixpoint: the ground closure [chase↓(D,Σ)] by a memoized
    fixpoint over canonical bag types, each child bag saturated
    recursively. The reference that the engine-based
    {!Tgds.Ground_closure} is checked against. *)

open Relational

(** [compute sigma db] — the ground closure; raises [Invalid_argument]
    when [sigma] is not guarded. *)
val compute :
  ?budget:Obs.Budget.t -> ?obs:Obs.Span.t -> Tgds.Tgd.t list -> Instance.t -> Instance.t
