(** Closed-world CQS evaluation (§3.2) with constraint-aware semantic
    optimization — the executable content of the tractable direction of
    Theorems 5.7/5.12. [?obs] collects phase spans: [rewrite], [index],
    [match]. *)

open Relational

(** [eval s db c̄] — direct evaluation (the input is promised to satisfy
    the constraints; see {!Cqs.admissible}). *)
val eval : ?obs:Obs.Span.t -> Cqs.t -> Instance.t -> Term.const list -> bool

(** Replace the query by a Σ-equivalent minimized UCQ. *)
val optimize : ?obs:Obs.Span.t -> Cqs.t -> Cqs.t

(** [answer_set s db] — the answer set, enumerated output-sensitively
    via {!Engine.Enumerate}; a budget cuts the stream gracefully (the
    prefix is a subset of the exact set). Answer variables occurring in
    no atom range over the active domain. *)
val answer_set :
  ?optimize_first:bool ->
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  Cqs.t ->
  Instance.t ->
  Engine.Enumerate.result

(** All answers (of the optionally optimized query), as a canonical
    sorted set. *)
val answers :
  ?optimize_first:bool ->
  ?obs:Obs.Span.t ->
  Cqs.t ->
  Instance.t ->
  Term.const list list
