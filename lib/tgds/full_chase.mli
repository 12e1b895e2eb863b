(** Terminating chase for full TGDs (Lemma A.4's fast path). *)

open Relational

(** [run ?budget ?obs sigma db] — the finite chase together with the
    run's outcome ([Partial _] when the budget cut it); raises
    [Invalid_argument] on non-full TGDs. *)
val run :
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  Tgd.t list ->
  Instance.t ->
  Instance.t * Obs.Budget.outcome

(** {!run} without the outcome. *)
val saturate :
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  Tgd.t list ->
  Instance.t ->
  Instance.t

(** Exact UCQ certain answering over a full TGD set. *)
val entails : Tgd.t list -> Instance.t -> Ucq.t -> Term.const list -> bool

(** Boolean variant. *)
val holds : Tgd.t list -> Instance.t -> Ucq.t -> bool

(** The Lemma A.4 size bound [|D| · |T| · ar(T)^ar(T)]. *)
val size_bound : Tgd.t list -> Instance.t -> int
