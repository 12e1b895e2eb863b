(** The derivation ledger of a maintained store: the oblivious chase's
    forest of fired triggers, as a columnar arena of ints.

    A derivation is an int id naming a fixed-width block in its rule's
    arena: the trigger's binding cells, then one edge per body atom and
    one per head atom. Facts are named by their {!Engine.Index.handle};
    each has a {e producing} list (the derivations with the fact among
    their outs) and a {e consuming} list (those with it in their body),
    both intrusive doubly linked lists threaded through the edges, and a
    base flag. Killing a derivation unlinks each of its edges in O(1)
    and puts its block on its rule's free list, so a reused block is
    never reachable from a stale list, and the arena's capacity stays put
    under insert/delete churn.

    The ledger holds no store: handles are the caller's to resolve. *)

type t

(** A rule's block shape: binding cells, body atoms, head atoms. *)
type shape = { cells : int; body : int; outs : int }

(** [create shapes] — an empty ledger for rules of these shapes, by rule
    index. *)
val create : shape array -> t

(** Number of live derivations. *)
val live : t -> int

(** [file led fr] — record a firing reported by
    {!Engine.Saturate}'s [on_fire] hook. *)
val file : t -> Engine.Saturate.firing -> unit

(** [add led ~rule ~cells ~body ~outs] — record a derivation from its
    parts (an image's ledger entry), the facts by handle. Raises
    [Invalid_argument] when [rule] is outside the program, or the cells
    or facts do not fit the rule's shape. *)
val add :
  t -> rule:int -> cells:int array -> body:int list -> outs:int list -> unit

(** [iter led f] — every live derivation, by rule, then block order. *)
val iter : t -> (int -> unit) -> unit

(** A live derivation's rule, its binding cells and its distinct body
    and out facts. *)
val rule : t -> int -> int

val cells : t -> int -> int
val cell : t -> int -> int -> int
val fold_body : t -> int -> (int -> 'a -> 'a) -> 'a -> 'a
val fold_outs : t -> int -> (int -> 'a -> 'a) -> 'a -> 'a

(** [fold_producers led h f acc] — over the live derivations producing
    the fact [h]. *)
val fold_producers : t -> int -> (int -> 'a -> 'a) -> 'a -> 'a

(** {2 Base facts} *)

val is_base : t -> int -> bool
val set_base : t -> int -> bool -> unit
val base_count : t -> int

(** [iter_base led f] — every base fact's handle. *)
val iter_base : t -> (int -> unit) -> unit

(** {2 Over-delete}

    A fact retracted from the store leaves its row, which a later insert
    reuses: its ledger state is {!detach}ed first and {!attach}ed to the
    handle the fact comes back under, if it does. *)

(** [retract led h f] — kill every derivation consuming [h], calling
    [f] on each of their out facts first, and mark [h] retracted. *)
val retract : t -> int -> (int -> unit) -> unit

(** [h] was retracted and not yet detached. *)
val retracted : t -> int -> bool

(** A detached fact's ledger state: its base flag and producing list. *)
type saved

(** [detach led h] — take [h]'s state off its row, leaving the row
    clean. Call it once the over-delete is over. *)
val detach : t -> int -> saved

val saved_base : saved -> bool

(** The fact still has a live producer. *)
val saved_supported : saved -> bool

val fold_saved_producers : t -> saved -> (int -> 'a -> 'a) -> 'a -> 'a

(** [attach led h s] — file [s] under the handle [h] of the re-inserted
    fact, renaming the fact in its producers' out edges. *)
val attach : t -> int -> saved -> unit

(** {2 Accounting} *)

(** Heap words reachable from the ledger plus the capacity of its
    off-heap columns. *)
val words : t -> int

(** [audit led ~stored] — the ledger's invariants, given which handles
    name stored facts: every edge of a live derivation is on its fact's
    list, every list holds live blocks only, consistently linked, a row
    holding no stored fact has no ledger state, and the live and base
    counts are right. The violations found, none when it holds. *)
val audit : t -> stored:(int -> bool) -> string list
