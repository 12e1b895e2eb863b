(** Write-ahead mutation log for the [serve] maintenance loop.

    A WAL directory holds two kinds of files:

    - [image-<seq>.json] — an exact {!Incr.image} of the maintained
      store {e after} applying mutations [1..seq] (written atomically:
      temp file, fsync, rename);
    - [wal-<seq>.log] — the segment of records appended {e after} that
      image, one record per line:
      {v
      <crc32-hex8> <json>\n
      v}
      where the checksum covers exactly the JSON payload. A mutation
      record is [{"s": seq, "k": "+"|"-", "p": pred, "a": [const, …]}]
      (written and read through {!Checkpoint}'s shared codec, so
      constants and facts are spelled as in a checkpoint); a quarantine marker
      [{"s": seq, "k": "q"}] says the mutation recorded under [seq] was
      rejected after exhausting its retries and must be skipped on
      replay.

    Durability contract: {!append} writes the record and fsyncs {e
    before} the caller applies the mutation (append-before-apply), so
    every acknowledged mutation is on disk. The record body is flushed
    before its terminating newline: a crash mid-append leaves a {e torn}
    final line (no newline, or a checksum mismatch), which {!recover}
    truncates instead of failing — that mutation was never applied, and
    re-running the log re-appends it. Probe points [wal.append] (before
    anything is written) and [wal.fsync] (after the body, before the
    newline and fsync) let a fault plan exercise both crash windows
    deterministically.

    {!rotate} writes a fresh image and starts a new segment, then prunes
    everything older; each crash window in that sequence leaves a
    recoverable directory (an image with no segment recovers with an
    empty tail; an un-pruned old segment contributes no records above
    the image's seq).

    Recovery loads the newest image that decodes (falling back past
    corrupt ones), replays the surviving tail records in sequence order
    minus the quarantined ones, and reports how many records were
    replayed and truncated — {!Incr.of_image} plus this tail reproduces
    the pre-crash store {e exactly} (same null ids, same iteration
    order), which is what makes post-recovery output byte-identical to
    an uninterrupted run. *)

(** A durable record: a mutation with its 1-based log position, or a
    quarantine marker naming a poisoned position. *)
type record = Op of int * Incr.op | Quarantine of int

(** An open, appendable WAL. *)
type t

(** [create ~dir image] — start a fresh WAL: make [dir] (and parents) if
    needed, write [image-0.json] from [image] (the post-chase,
    pre-mutation store) and open segment [wal-0.log]. Raises
    [Invalid_argument] if [dir] already holds WAL files — recovering and
    overwriting are different intents ([--recover] vs a fresh
    directory). *)
val create : dir:string -> Incr.image -> t

(** [reopen ~dir] — open the newest segment for appending after a
    {!recover} (creating it when the crash fell between image write and
    segment creation). Raises [Invalid_argument] when [dir] holds no
    image. *)
val reopen : dir:string -> t

(** [append t record] — write, flush, fsync. See the durability
    contract above. *)
val append : t -> record -> unit

(** [rotate t ~seq image] — persist [image] as [image-<seq>.json], start
    segment [wal-<seq>.log], prune older images and segments. *)
val rotate : t -> seq:int -> Incr.image -> unit

val close : t -> unit

type recovery = {
  rec_image : Incr.image;
  rec_image_seq : int;
  rec_ops : (int * Incr.op) list;
      (** tail mutations to replay: seq above the image's, quarantined
          positions removed, ascending *)
  rec_quarantined : int list;  (** quarantined positions seen, ascending *)
  rec_last_seq : int;
      (** highest durable record position — the log resumes at
          [rec_last_seq + 1] *)
  rec_truncated : int;  (** torn final records dropped (0 or 1) *)
  rec_skipped_images : int;  (** corrupt newer images fallen past *)
}

(** [recover ~dir] — read the directory back; [Error] with a one-line
    ["wal: …"] diagnostic naming the file when no image decodes, a
    segment cannot be read, or a non-final record is corrupt (a torn
    {e final} record is truncated, not an error). Never raises. *)
val recover : dir:string -> (recovery, string) result

(** No images in [dir] (missing, empty, or never rotated): nothing to
    recover — callers fall back to a fresh start. *)
val is_empty : dir:string -> bool

(** Image codec, exposed for tests: [image_of_json (image_to_json ~seq
    im) = Ok (seq, im)]. Decoding also rejects an image whose
    [null_count] is below a null id of its [syms], whose base or ledger
    names a fact outside its [facts], or whose trigger keys hold a
    symbol outside its [syms] or a [null] slot (which no writer emits). *)
val image_to_json : seq:int -> Incr.image -> Obs.Json.t

val image_of_json : Obs.Json.t -> (int * Incr.image, string) result
