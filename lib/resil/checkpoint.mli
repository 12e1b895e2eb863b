(** Chase checkpoints: durable serialisation of {!Engine.Saturate.snapshot}
    (= {!Tgds.Chase.snapshot}), and the JSON codec the WAL shares.

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
    other engine name is an error, and so is a ["null_count"] below a
    null id of the facts. *)

type t = Engine.Saturate.snapshot

val schema : string
val version : int
val to_json : t -> Obs.Json.t

(** [of_json j] — inverse of {!to_json}; [Error] on an unknown schema or
    version, any malformed field, or a ["null_count"] below a null id of
    the facts (resuming it would re-issue that id). *)
val of_json : Obs.Json.t -> (t, string) result

(** [save path t] — {!write_atomic} of {!to_json}. *)
val save : string -> t -> unit

(** Why a durable file failed to load. [Io] — the file could not be read
    (missing, permissions, a directory): an input error, exit code 2 at
    the CLI. [Corrupt] — the file was read but does not decode (truncated
    JSON, bad schema, malformed field): a runtime fault, exit code 1.
    Both carry a one-line diagnostic naming the file. *)
type error = Io of string | Corrupt of string

(** The diagnostic line of an {!error}. *)
val error_message : error -> string

(** [load path] — read and decode; see {!error} for the failure split. *)
val load : string -> (t, error) result

(** {1 The shared codec}

    Checkpoints and the WAL's record and image files ({!Wal}) are written
    and read through these, so every durable artifact spells constants
    and facts the same way and reports a bad file the same way. Decoders
    return an unprefixed one-line message; {!decode_file} adds the
    artifact's tag and the path. *)

(** A named constant is a JSON string, a labelled null [{"n": id}]. *)
val const_to_json : Relational.Term.const -> Obs.Json.t

val const_of_json : Obs.Json.t -> (Relational.Term.const, string) result

(** A fact with its s-level: [{"p": pred, "l": level, "a": [const, …]}]. *)
val fact_to_json : Relational.Fact.t * int -> Obs.Json.t

val fact_of_json : Obs.Json.t -> (Relational.Fact.t * int, string) result

(** A bare fact: [{"p": pred, "a": [const, …]}], or its two fields for
    embedding in a larger object. *)
val bare_fact_fields : Relational.Fact.t -> (string * Obs.Json.t) list

val bare_fact_to_json : Relational.Fact.t -> Obs.Json.t
val bare_fact_of_json : Obs.Json.t -> (Relational.Fact.t, string) result

(** [field name extract j] — member [name] of object [j], through
    [extract] ({!int_f}, {!str_f}). *)
val field :
  string -> (Obs.Json.t -> 'a option) -> Obs.Json.t -> ('a, string) result

val int_f : Obs.Json.t -> int option
val str_f : Obs.Json.t -> string option

(** [list_field name decode j] — member [name], a list, each element
    through [decode]; the first failure wins. *)
val list_field :
  string ->
  (Obs.Json.t -> ('a, string) result) ->
  Obs.Json.t ->
  ('a list, string) result

(** The ["counters"] object: metric name to total, in list order. *)
val counters_to_json : (string * int) list -> Obs.Json.t

val counters_field : Obs.Json.t -> ((string * int) list, string) result

(** [header ~schema ~version j] — [j]'s ["schema"] and ["version"] are
    exactly these. *)
val header : schema:string -> version:int -> Obs.Json.t -> (unit, string) result

(** [check_null_count n consts] — no labelled null of [consts] has an id
    above [n], the null counter a resume restores. *)
val check_null_count : int -> Relational.Term.const list -> (unit, string) result

(** [read_file path] — the file's bytes, or a one-line message naming
    the file. Never raises. *)
val read_file : string -> (string, string) result

(** [decode_file ~tag decode path] — {!read_file}, parse and [decode]:
    [Io "tag: …"] when the file cannot be read, [Corrupt "tag: … (path)"]
    when it does not decode. *)
val decode_file :
  tag:string ->
  (Obs.Json.t -> ('a, string) result) ->
  string ->
  ('a, error) result

(** [write_atomic path j] — write [j] (single line + newline) to a
    temporary file next to [path], fsync it, and rename it over [path]:
    a crash leaves either the old file or the new one. Checkpoints and
    WAL images are both written this way. *)
val write_atomic : string -> Obs.Json.t -> unit
