(** Chase checkpoints: durable serialisation of {!Tgds.Chase.snapshot}.

    The on-disk form is deterministic {!Obs.Json} with a pinned key order
    and a versioned schema header, so checkpoints are golden-testable and
    [save → load → save] is byte-identical:

    {v
    {"schema": "guarded-chase-checkpoint", "version": 1,
     "engine": "indexed",
     "policy": "oblivious" | "restricted",
     "level": int, "saturated": bool, "null_count": int,
     "triggers_fired": int, "triggers_dismissed": int,
     "counters": {name: int, …},          (* sorted by name *)
     "facts": [{"p": pred, "l": s-level, "a": [const, …]}, …]}
    v}

    Facts are sorted by (s-level, fact); a constant is a JSON string for
    a named constant and [{"n": id}] for a labelled null. Loading also
    accepts ["engine": "parallel"] and ["engine": "naive"], written by
    since-removed engines; such a checkpoint resumes like any other. Any
    other engine name is an error. *)

type t = Tgds.Chase.snapshot

val schema : string
val version : int

(** Shared constant/fact codecs: a named constant is a JSON string, a
    labelled null [{"n": id}]; a fact with its s-level is
    [{"p": pred, "l": level, "a": [const, …]}]. The WAL's record and
    image files reuse these, so every durable artifact spells constants
    the same way. *)
val const_to_json : Relational.Term.const -> Obs.Json.t

val const_of_json : Obs.Json.t -> (Relational.Term.const, string) result
val fact_to_json : Relational.Fact.t * int -> Obs.Json.t
val fact_of_json : Obs.Json.t -> (Relational.Fact.t * int, string) result
val to_json : t -> Obs.Json.t

(** [of_json j] — inverse of {!to_json}; [Error] on an unknown schema or
    version, or any malformed field. *)
val of_json : Obs.Json.t -> (t, string) result

(** [write_atomic path j] — write [j] (single line + newline) to a
    temporary file next to [path], fsync it, and rename it over [path]:
    a crash leaves either the old file or the new one. Checkpoints and
    WAL images are both written this way. *)
val write_atomic : string -> Obs.Json.t -> unit

(** [save path t] — {!write_atomic} of {!to_json}. *)
val save : string -> t -> unit

(** Why a checkpoint failed to load. [Io] — the file could not be read
    (missing, permissions): an input error, exit code 2 at the CLI.
    [Corrupt] — the file was read but is not a valid checkpoint
    (truncated JSON, bad schema, malformed field): a runtime fault, exit
    code 1. Both carry a one-line diagnostic naming the file. *)
type error = Io of string | Corrupt of string

(** The diagnostic line of an {!error}. *)
val error_message : error -> string

(** [load path] — read and decode; see {!error} for the failure split. *)
val load : string -> (t, error) result
