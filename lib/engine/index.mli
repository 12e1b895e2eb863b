(** Indexed fact store.

    A hashed view of a {!Relational.Instance.t} keyed by
    [(predicate, argument position, constant)]: for every fact
    [R(c1,…,cn)] and every position [i], the tuple [(c1,…,cn)] is filed
    under [(R, i, ci)]. A join atom with at least one bound position is
    then matched against the smallest posting list of its bound positions
    instead of the whole relation — the O(1)-per-candidate retrieval the
    semi-naive chase and the {!Joiner} build on.

    Every stored fact carries its s-level (the chase pass that derived
    it; 0 for database facts), kept in a column beside the arguments.

    Most postings hold one row (a labelled null occurs only in the few
    atoms derived from the trigger that invented it), so a posting with
    one live row is stored inline, as the row's handle in its flat
    int-keyed posting table ({!Itab}); the second row promotes it to a
    vector and a removal that leaves one live row demotes it back.

    The store is mutable: {!insert} and {!remove} change it in place,
    and every handle to it (including {!reader} views) sees the change.
    Conversion to and from [Instance.t] is provided at both ends. *)

open Relational

type t

(** A fresh empty store. *)
val create : unit -> t

(** Build a store holding the facts of an instance. *)
val of_instance : Instance.t -> t

(** [of_facts fs] — the store of the distinct facts of [fs], filed in
    [Fact.compare] order, which is [Instance.iter]'s: the same store,
    down to every symbol id, row, stamp and ["engine.insert"] hit, as
    [of_instance (Instance.of_facts fs)], built without the instance. *)
val of_facts : Fact.t list -> t

(** [symbols idx] — every symbol the store's table has interned. Right
    after {!of_facts} or {!of_instance}, before a rule fires, these are
    exactly the constants of the loaded facts, dom(D), under the ids
    [0 … n-1]. *)
val symbols : t -> Term.ConstSet.t

(** The facts of the store, as an instance. *)
val to_instance : t -> Instance.t

(** The facts of the store with their s-levels, in {e storage order}:
    predicates in intern order, each relation's live rows oldest-first
    (append order of the surviving posting entries). Inserting the
    returned facts into a fresh store, in order, reproduces this store's
    iteration order exactly — posting lists and relations present
    candidates in the same sequence — which is what trajectory-faithful
    recovery of a maintained store needs (row handles and free-list
    state may differ; neither is observable through the matching API). *)
val ordered_facts : t -> (Fact.t * int) list

(** [decode_ordered idx] — {!ordered_facts}, and a lookup from the
    {!handle} of any stored fact to the very [Fact.t] of that list: a
    writer that names stored facts many times (an image's ledger) decodes
    each one once and shares it. The lookup is valid only until the
    store next changes. *)
val decode_ordered : t -> (Fact.t * int) list * (int -> Fact.t)

(** [fold_within idx cids f acc] — fold [f] over the interned keys (fresh
    arrays) of the stored facts whose arguments all lie among the cells
    [cids], nullary facts included. The facts are read from the postings
    of [cids] and the nullary relations, never by a scan of the store:
    the cost is one posting-table probe per cell, relation and position,
    plus the rows filed under [cids]. The order is deterministic (by
    predicate, then cell, then position); no probe is counted. *)
val fold_within : t -> int array -> (int array -> 'a -> 'a) -> 'a -> 'a

(** [insert ?level f idx] — file [f] under every argument position and
    report whether the fact was new (a single membership probe). A new
    fact gets s-level [level] (default 0); a present one keeps its own.
    Hits the ["engine.insert"] {!Obs.Probe} point. *)
val insert : ?level:int -> Fact.t -> t -> bool

(** [remove f idx] — delete [f] from the store and prune every posting
    list it was filed under; [false] when it was not present. Counts
    against [index.removes]. The incremental maintenance layer's
    over-delete phase is the intended caller — the chase itself never
    retracts.

    Cost: O(arity · log n) amortised, with [n] the length of the
    relation, and no scan. Every row carries an insertion stamp, so
    the relation's order vector and each posting vector, which only see
    appends and order-preserving removals, are sorted by stamp; the
    row is found in each of these by binary search and its slot becomes
    a tombstone that readers skip. A vector squeezes its tombstones
    out, in order, once they are more than half of it. A singleton
    posting needs no search: its table entry is dropped, O(1) expected.
    Iteration order, candidate counts and probe accounting are those of
    a store that never held the fact. *)
val remove : Fact.t -> t -> bool

val mem : Fact.t -> t -> bool

(** [level idx f] — the s-level of a stored fact. *)
val level : t -> Fact.t -> int option

(** [set_level idx f l] — overwrite the s-level of a stored fact.
    Raises [Invalid_argument] when [f] is not stored. *)
val set_level : t -> Fact.t -> int -> unit

(** [iter_handles f idx] — [f] on the {!handle} of every stored fact,
    in storage order (as {!ordered_facts}). *)
val iter_handles : (int -> unit) -> t -> unit

(** [fold_levels f idx acc] — fold over the s-level of every stored
    fact, in storage order. *)
val fold_levels : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** Hash tables keyed by interned fact keys [[| pid; cid1; …; cidn |]]. *)
module Keytbl : Hashtbl.S with type key = int array

(** [key idx f] — the interned key of [f] when all its symbols are
    interned (e.g. when [f] is stored); never assigns ids. *)
val key : t -> Fact.t -> int array option

(** [decode_key idx key] — the fact an interned key names. *)
val decode_key : t -> int array -> Fact.t

(** {2 Operations by interned key and by handle}

    A stored fact's {e handle} is a non-negative int naming its row: a
    relation id (dense over the store, in creation order) above a row
    number. It stays valid while the fact is stored; a removed fact's
    row is reused by a later insert, so a fact removed and inserted
    again may come back under another handle. The incremental
    maintenance ledger names facts by handle and files its per-fact
    data in per-relation columns indexed by {!handle_rel} and
    {!handle_row}. *)

(** [intern idx f] — the interned key of [f], interning its predicate
    and then its arguments left to right, as {!insert} does. *)
val intern : t -> Fact.t -> int array

(** [insert_interned ?level key idx] — {!insert} of the fact with the
    interned [key] (from {!intern}). The store only reads [key]: it keeps
    no key of its own, and names the fact by its row. *)
val insert_interned : ?level:int -> int array -> t -> bool

(** [remove_key key idx] — {!remove}, at the same cost: one membership
    probe, a binary search of the relation's order vector, then per
    position either an O(1) expected drop of a singleton posting's table
    entry or a binary search of its posting vector (O(log n)), which is
    demoted to an inline row when one live row is left. [remove f] is
    [remove_key] of [f]'s key plus the symbol lookups. *)
val remove_key : int array -> t -> bool

(** [handle idx key] — the handle of the stored fact with interned
    [key], [-1] when it is not stored. One membership probe, allocation
    free: the membership table is a flat open-addressing table of
    handles and key hashes, and a probe compares [key] with the row's
    own columns. *)
val handle : t -> int array -> int

(** [mem_key key idx] — is the fact with interned [key] stored? *)
val mem_key : int array -> t -> bool

(** [key_level idx key] — the s-level of the stored fact with interned
    [key], [-1] when it is not stored. Allocation free. *)
val key_level : t -> int array -> int

(** [handle_key idx h] — a fresh copy of the interned key of the fact
    stored under [h]. *)
val handle_key : t -> int -> int array

(** [handle_level idx h] — the s-level of the fact stored under [h]. *)
val handle_level : t -> int -> int

(** [handle_pid idx h] — the interned predicate of the fact stored
    under [h]. *)
val handle_pid : t -> int -> int

(** The relation id and the row a handle names, and the handle of a
    relation id and row. *)
val handle_rel : int -> int

val handle_row : int -> int
val handle_of : rel:int -> row:int -> int

(** Number of (distinct) facts. *)
val size : t -> int

(** {2 Compiled atoms}

    All matching runs on interned ints end to end: an atom is compiled
    once per search (once per rule, for the chase) against the store's
    symbol table, and every subsequent selection/matching step is flat
    int arithmetic against a caller-owned binding environment — no
    [VarMap], no option, no tuple materialization. A binding environment
    [benv] is an int array indexed by variable slot: [benv.(s) >= 0] is
    the cell id the variable is bound to, [-1] is unbound. The caller
    owns slot assignment (one slot map per conjunction; see
    {!Joiner.compile}). *)

type catom
(** A compiled query atom. Carries private matching scratch: compile one
    per (request, atom); never share a [catom] between domains. *)

val compile_atom : t -> slot:(string -> int) -> Atom.t -> catom
(** [compile_atom idx ~slot a] — resolve [a]'s predicate and constant
    arguments against the store's symbol table (unknown symbols compile
    to never-matching patterns) and its variables to [slot x]. *)

val compile_head :
  t -> slot:(string -> int) -> fresh:(string -> bool) -> Atom.t -> catom
(** [compile_head idx ~slot ~fresh a] — {!compile_atom} for a rule head
    whose variables [x] with [fresh x] are existential. In matching an
    existential is an ordinary variable; at {!insert_key} its slot holds
    the payload [n] of the fresh null [Null n] to write. *)

val resolve : t -> catom -> unit
(** [resolve idx ca] — look up again, without interning, the predicate
    and constants of [ca] that were unknown when it was compiled (or last
    resolved); ids already resolved never change. *)

val catom_unbound : catom -> benv:int array -> bool
(** Does the atom still contain a variable unbound in [benv]? *)

val catom_count : t -> catom -> benv:int array -> int
(** [catom_count idx ca ~benv] — the number of candidate rows
    {!fold_catom} would walk: the live size of the smallest posting list over
    [ca]'s bound positions under [benv] (the first strictly smaller
    wins; an unknown constant's posting is empty), or of the whole
    relation when no position is bound. One flat-table probe per bound
    position; an inline singleton counts 1 and a vector its live rows,
    without reading them. Allocation free, and no probe is counted, so
    cheapest-first selection is free. *)

val fold_catom :
  t ->
  catom ->
  benv:int array ->
  on_candidate:(unit -> unit) ->
  on_fail:(unit -> unit) ->
  (int -> bool) ->
  int ->
  bool
(** [fold_catom idx ca ~benv ~on_candidate ~on_fail f arg] — walk the
    candidate rows {!catom_count} counts, most recently added first,
    binding [ca]'s unbound variables directly in [benv] for the duration
    of each matching candidate's [f arg] call (undone before the next
    candidate and before returning). [f] returning [true] stops the walk
    early and makes the fold return [true] — the satisfiability caller's
    early exit. [on_candidate] fires once per candidate considered and
    [on_fail] once per candidate that does not match, so callers keep
    exact [joiner.candidates]/[joiner.backtracks] accounting; one
    [index.probes] probe is counted per call. If [f] raises, [benv] is
    left as the raise saw it (the enumeration paths abandon the whole
    request on such unwinds). *)

val catom_pid : catom -> int
(** The atom's interned predicate id, [-1] when it was unknown at
    compile time. *)

val match_handle : t -> catom -> benv:int array -> int -> (unit -> unit) -> bool
(** [match_handle idx ca ~benv h f] — match [ca] against the stored fact
    with handle [h] (the semi-naive delta pivot), reading its row's
    cells: when it matches, call [f ()] with [ca]'s unbound variables
    bound in [benv] (undone before returning) and return [true];
    otherwise return [false]. No probe is counted. *)

val catom_level : t -> catom -> benv:int array -> int
(** [catom_level idx ca ~benv] — the s-level of the stored fact [ca]
    denotes under [benv] (every variable bound); 0 when it is not
    stored. *)

val catom_handle : t -> catom -> int
(** [catom_handle idx ca] — the {!handle} of the fact whose key was last
    built in [ca]'s scratch: by {!catom_level} for a body atom, by
    {!insert_key} for a head atom (existentials interned); [-1] when it
    is not stored. The firing path names a fired trigger's body and
    head facts this way. *)

val insert_key : t -> level:int -> catom -> benv:int array -> int
(** [insert_key idx ~level ca ~benv] — {!insert} of the fact [ca]
    denotes under [benv] (every variable bound; existential slots hold
    null payloads), straight from interned ids: interns the predicate, then the
    arguments left to right (exactly {!insert}'s order), hits
    ["engine.insert"] and counts [index.inserts]/[index.duplicates].
    Returns the new fact's {!handle}, or [-1] when it was already
    stored. Allocates nothing but the store's own growth. *)

(** Number of posting-list probes performed so far (statistics). *)
val probes : t -> int

(** The store's symbol table (shared with {!reader} views). *)
val symtab : t -> Symtab.t

(** Allocated capacity of the store, in words: the relations' columns,
    level, stamp and free-list vectors, the order vectors, the posting
    vectors and the membership table's slots. The posting tables are not
    counted, so an inline singleton posting, which lives in its posting
    table, costs nothing here. Stable under insert/delete churn thanks
    to free-list row reuse, tombstone compaction, vector demotion and
    the membership table's backward-shift removal, which leaves no
    tombstone (asserted by the capacity-leak regression tests). *)
val capacity_words : t -> int

(** The store's metrics registry: [index.probes], [index.inserts],
    [index.duplicates], [index.removes], plus the [joiner.*] counters the
    {!Joiner} files against the store it searches. *)
val metrics : t -> Obs.Metrics.t

(** [reader idx] — a view sharing [idx]'s fact tables but owning a fresh
    metrics registry. Worker domains search through readers (one each) so
    probe counting never races on the shared registry; the caller merges
    the reader registries back with {!Obs.Metrics.absorb}. The view must
    only be {e read} while [idx] itself is not being mutated — inserting
    through either handle while another domain reads is a data race. *)
val reader : t -> t
