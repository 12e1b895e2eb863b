(** Closed-world CQS evaluation (§3.2).

    The evaluation problem receives a database *promised* to satisfy the
    constraints and evaluates the UCQ directly. The constraints still
    matter: they license semantic optimizations (§1, "constraint-aware
    query optimization"), implemented here as Σ-equivalent minimization of
    the query before evaluation — the executable content of the
    tractability direction (3) ⇒ (1) of Theorems 5.7/5.12: when the CQS is
    uniformly UCQk-equivalent, evaluating the equivalent low-treewidth
    query is polynomial.

    Direct evaluation indexes the database once ([Engine.Index]) and
    matches query atoms through the joiner's posting lists. [?obs]
    collects the pipeline phases as child spans: [rewrite] (Σ-equivalent
    minimization), [index] (building the fact store), [match]. *)

(** [eval s db c̄] — is [c̄ ∈ q(db)]? ([db] should satisfy the constraints;
    use {!Cqs.admissible} to check the promise.) *)
let eval ?obs (s : Cqs.t) db tuple =
  let idx =
    Obs.Span.timed obs "index" @@ fun () -> Engine.Index.of_instance db
  in
  Obs.Span.timed obs "match" @@ fun () ->
  Engine.Joiner.entails_ucq idx (Cqs.query s) tuple

(** [optimize s] — replace the query by a Σ-equivalent minimized UCQ
    (sound: every certified simplification preserves the answers on all
    admissible databases). *)
let optimize ?obs (s : Cqs.t) =
  Obs.Span.timed obs "rewrite" @@ fun () ->
  let q' = Sigma_containment.minimize_ucq (Cqs.constraints s) (Cqs.query s) in
  Cqs.make ~constraints:(Cqs.constraints s) ~query:q'

(** [answer_set s db] — the answer set of the (possibly optimized) query,
    enumerated output-sensitively from the index ({!Engine.Enumerate}):
    the database is indexed once, answer variables bind from posting
    lists, and a budget cuts the stream gracefully (the prefix is a
    subset of the exact set, [outcome] records the cut). Answer
    variables that occur in no atom range over the active domain. *)
let answer_set ?(optimize_first = false) ?budget ?obs (s : Cqs.t) db =
  let s = if optimize_first then optimize ?obs s else s in
  let idx =
    Obs.Span.timed obs "index" @@ fun () -> Engine.Index.of_instance db
  in
  (* the per-disjunct spans nest under "match" *)
  Obs.Span.nest obs "match" @@ fun sp ->
  Engine.Enumerate.ucq ?budget ?obs:sp
    ~universe:(Relational.Instance.dom db)
    idx (Cqs.query s)

(** [answers s db] — all answers of the (possibly optimized) query, as a
    canonical sorted set. *)
let answers ?(optimize_first = false) ?obs (s : Cqs.t) db =
  (answer_set ~optimize_first ?obs s db).Engine.Enumerate.answers
