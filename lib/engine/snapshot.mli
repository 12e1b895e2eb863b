(** Immutable snapshot of a saturated fact store.

    The query server saturates once, then serves many concurrent
    requests from the result. This module is the seam between those two
    phases: {!freeze} captures a chased {!Index} together with the
    certain-answer universe (the active domain of the {e input}
    database, nulls excluded) and whether saturation completed, and from
    then on the snapshot is read-only by contract — no handle capable of
    mutation is reachable through this interface.

    Each worker domain obtains its own {!view} (an {!Index.reader}
    wrapping the shared tables with a private metrics registry), so
    posting-list probe accounting never races across domains; the server
    drains view registries back into its report with
    {!Obs.Metrics.absorb} in worker order, keeping merged totals
    reproducible under any worker count. Concurrent reads of the shared
    tables are safe precisely because nothing mutates them after
    {!freeze} — the snapshot owns the only references. *)

open Relational
open Relational.Term

type t
(** A frozen saturated store. Safe to share across domains. *)

type view
(** A per-worker read handle: shares the snapshot's fact tables, owns a
    private metrics registry. Create one per domain; never share a view
    between domains. *)

val freeze : saturated:bool -> universe:ConstSet.t -> Index.t -> t
(** [freeze ~saturated ~universe idx] — seal [idx] as a snapshot. The
    caller must hand over ownership: mutating [idx] (or any reader of
    it) after freezing is a data race against concurrent views.
    [universe] is the answer universe ({!Relational.Instance.dom} of the
    input database); nulls are filtered by the enumerator. [saturated]
    records whether the chase completed within budget — serving from an
    unsaturated store is sound but incomplete, and the flag lets the
    server mark every reply accordingly. *)

val saturated : t -> bool
val universe : t -> ConstSet.t

val size : t -> int
(** Number of distinct facts in the frozen store. *)

val symtab : t -> Symtab.t
(** The shared symbol table (needed to render interned constants). *)

val view : t -> view
(** A fresh per-worker read handle: shares tables, owns a private
    metrics registry and a private {!Enumerate.ctx} (compiled universe,
    seen-set, answer arena) reused across every request the worker
    serves. O(universe) to build, then allocation-lean per request. *)

val view_metrics : view -> Obs.Metrics.t
(** The view's private registry ([index.probes], [joiner.*]), for
    absorbing into a server-wide report after the worker joins. *)

val ucq_i :
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  view ->
  Ucq.t ->
  Enumerate.interned
(** [ucq_i v q] — certain answers of [q] over the frozen store, through
    worker view [v], as an interned result the server renders and
    counts without materializing: the per-request hot path. [?budget]
    gives per-request admission control (a violated budget returns a
    [Partial] prefix); [?obs] attaches the enumeration spans to the
    request's span. *)
