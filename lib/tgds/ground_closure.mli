(** Ground closure of the guarded chase: the finite instance
    [chase↓(D,Σ) = { R(ā) ∈ chase(D,Σ) | ā ⊆ dom(D) }] ([complete(D,Σ)] /
    [D⁺] of Appendices A and F) — the executable content of the
    [typeD,Σ] machinery. Guarded sets only.

    The closure of an instance is one {!Engine.Saturate.run} over it
    under Σ's full rules and a cache of {e emitted} full rules, one per
    bag type met so far: [body(σ) ∧ C(x̄) → F(x̄)] for an existential
    rule σ with frontier x̄, the trigger's context [C] (its atoms over
    the frontier constants, read from the store's postings of those
    constants) and [F], what the child bag [head(σ) ∪ C] derives over
    the frontier. A bag type is keyed by interned ids: the rule, the
    first-occurrence pattern of the frontier tuple and the sorted context
    atoms over frontier positions. An outer loop re-closes the registered
    bag types until no emitted rule grows. The constants of Σ are shared
    by every bag: they belong to every context and every [F], so the
    result is the null-free part of the chase (which is [chase↓(D,Σ)]
    when Σ's constants lie in [dom(D)]).

    The same registry keys the {e Σ-types} of Lemma A.3 (the guard
    predicate, the class pattern of the guard tuple and the facts over
    its classes, Σ's constants being fixed classes there too) and gives
    each a dense id; {!Linearize} names the predicates of [D*] and [Σ*]
    by these ids.

    Every saturation run — of an instance or of a child bag — hits the
    ["ground_closure.round"] {!Obs.Probe} point once. *)

open Relational

(** A guarded Σ with its cache of emitted rules. The cache only grows,
    and every emitted rule is a consequence of Σ, so one [t] serves any
    number of instances. *)
type t

(** [create sigma] — raises [Invalid_argument] when [sigma] is not
    guarded (the locality argument fails for mere frontier-guardedness,
    cf. the footnote to Lemma D.11). *)
val create : Tgd.t list -> t

(** [close t inst] — the ground closure of [inst], as the store the
    saturation left it in. *)
val close : t -> Instance.t -> Engine.Index.t

(** [type_id t idx f] — the id of the Σ-type of the fact [f] of [idx],
    a store [close t] returned: the facts of [idx] over [f]'s arguments
    and Σ's constants, up to a renaming that fixes Σ's constants. Ids
    are dense, in registration order. *)
val type_id : t -> Engine.Index.t -> Fact.t -> int

(** The number of Σ-types registered so far. *)
val type_count : t -> int

(** [type_guard t i] — the guard of Σ-type [i], over canonical
    constants. *)
val type_guard : t -> int -> Fact.t

(** [type_triggers t i] — one entry per match of a rule σ of Σ into the
    atoms of Σ-type [i] that sends σ's guard onto the type's: σ with the
    ids of the Σ-types of its head atoms, existentials fresh. A full
    rule's head types are read from the type's atoms, an existential
    rule's from the closure of its child bag; the new ones are
    registered. *)
val type_triggers : t -> int -> (Tgd.t * int list) list

(** {2 Bag keys}

    The key a bag type is registered under, for a caller that tells
    triggers apart by their bag types without a guarded [t]: the finite
    witness blocks on it, for any Σ. *)

(** What a key is read with: Σ's constants, the fixed classes of every
    key, and a predicate table, so keys read from different stores
    compare. *)
type keying

val keying : Tgd.t list -> keying

(** [bag_key kg idx tag cells] — the key of the tuple of interned cells
    [cells] of [idx] under the int [tag]: [tag], the tuple's
    first-occurrence class pattern after Σ's constants, and the sorted
    facts of [idx] over those classes, read from their postings
    ({!Engine.Index.fold_within}). For a rule's index as [tag] and a
    trigger's frontier tuple as [cells], equal keys mean isomorphic child
    bags: the bag type. *)
val bag_key : keying -> Engine.Index.t -> int -> int list -> int array

(** [compute sigma db] — the ground closure [chase↓(db,sigma)]; raises
    [Invalid_argument] when [sigma] is not guarded. *)
val compute : Tgd.t list -> Instance.t -> Instance.t

(** [type_of sigma db consts] — [typeD,Σ]: all chase atoms over [consts ⊆
    dom(db)], read from the closure by the postings of [consts]. *)
val type_of : Tgd.t list -> Instance.t -> Term.ConstSet.t -> Instance.t

(** Certain answering for atomic ground queries: [fact ∈ chase(db,sigma)]? *)
val entails_atom : Tgd.t list -> Instance.t -> Fact.t -> bool
