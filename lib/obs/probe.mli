(** Fault-injection probe points.

    Long-running engines call {!hit} at their natural interruption points
    (pass boundaries, index inserts, join entries). With no hook installed
    a hit is a single dereference — the production cost is nil. A test or
    supervisor installs a hook to observe (or abort, by raising from the
    hook) the run deterministically; [lib/resil] builds seeded fault plans
    on top of this.

    Canonical point names (documented where they are emitted):
    - ["engine.pass"] — top of every saturation pass ({!Engine.Saturate});
    - ["engine.insert"] — every indexed fact insert ({!Engine.Index});
    - ["engine.join"] — every joiner search entry ({!Engine.Joiner});
    - ["ground_closure.round"] — one saturation run of the ground
      closure ({!Tgds.Ground_closure}): of the input instance or of one
      child bag, once per run.

    The hook is process-global (the engines are single-threaded);
    installers must pair {!install} with {!clear}. *)

(** [install f] — make every {!hit} call [f point]. Replaces any
    previously installed hook. *)
val install : (string -> unit) -> unit

(** Remove the hook; {!hit} becomes free again. *)
val clear : unit -> unit

(** Whether a hook is currently installed. *)
val armed : unit -> bool

(** [hit point] — invoke the hook, if any, with the point's name.
    Whatever the hook raises propagates to the caller. *)
val hit : string -> unit
