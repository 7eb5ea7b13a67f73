(** Incremental provenance persistence.

    A browser cannot rewrite its whole provenance database on every
    click; Places persists incrementally and so must a provenance store
    (§4 implements the schema in SQLite precisely because it gives
    cheap incremental writes).  This module is that path for our store:
    an append-only binary log of provenance operations.

    - {!recording_store} mirrors every store mutation into the log as it
      happens;
    - {!replay} rebuilds a store from a log, tolerating a damaged tail
      (the crash case: recovery stops at the last verified record);
    - {!compact} rewrites the log as a relational snapshot plus an empty
      tail, bounding log growth;
    - {!Segmented} is the durable on-disk form: rotating checksummed
      segments under a manifest, with compaction and crash recovery.

    Storage format v2 frames every record with a length prefix and a
    CRC-32 ({!Relstore.Codec.write_frame}), so corruption anywhere in
    the file — a flipped byte, a torn write mid-file, not merely a
    truncated tail — is detected and recovery keeps exactly the longest
    verified prefix.  v1 journals (bare op encodings behind a
    [PROVLOG1] magic) still load; new journals are always v2.

    Experiments E14/E16 measure the per-event cost of this path and its
    behaviour across a sweep of injected crash points. *)

type op = Prov_store.mutation =
  | Add_node of Prov_node.t
  | Add_edge of { src : int; dst : int; edge : Prov_edge.t }
  | Close_node of { id : int; time : int }

val encode_op : Buffer.t -> op -> unit
val decode_op : string -> int ref -> op
(** Raises {!Relstore.Errors.Corrupt} on malformed (non-truncated)
    input. *)

val op_of_mutation : Prov_store.mutation -> op
(** The journal record for a store mutation (what {!recording_store}
    and {!Segmented.attach} append): the identity, since the two types
    are one. *)

val apply_op : Prov_store.t -> op -> unit
(** Apply one recorded operation through the restore path (no observer
    callbacks fire). *)

val format_version : string -> int option
(** [Some 1] / [Some 2] from a journal image's magic, [None] if it is
    not a journal. *)

(** {2 In-memory journal} *)

type t

val create : unit -> t
(** An empty journal. *)

val append : t -> op -> unit
val length : t -> int
(** Operations appended so far. *)

val byte_size : t -> int
(** Exact encoded size of the journal. *)

val to_bytes : t -> string
(** The v2 (framed, checksummed) image. *)

val to_bytes_v1 : t -> string
(** The legacy unframed image — kept for the framing-overhead
    measurement (E16) and for exercising the v1 load path. *)

val of_bytes : ?tolerate_truncation:bool -> string -> t
(** Accepts v1 and v2 images (probed by magic).
    [tolerate_truncation] (default true) stops cleanly at the last
    verified record instead of raising — the crash-recovery behaviour.
    Under v2 this also covers mid-file corruption: the first record
    whose checksum fails ends the readable prefix. *)

val ops : t -> op list

(** {2 Wiring} *)

val recording_store : unit -> Prov_store.t * t
(** A fresh store whose every mutation is mirrored into the returned
    journal.  Use the store exactly as usual (including through
    {!Capture}). *)

val replay : t -> Prov_store.t
(** Rebuild a store by applying the journal in order. *)

val ops_of_store : Prov_store.t -> op list
(** A canonical op stream equivalent to the store's current contents:
    every node (close time baked in) in id order, then every edge.
    Replaying it into an empty store reproduces the source; refolding
    it into a matview registry leaves the views snapshot-consistent
    with the store. *)

val save : t -> path:string -> unit
val load : path:string -> t

(** {2 Compaction} *)

val compact : Prov_store.t -> Relstore.Database.t * t
(** Snapshot the store relationally and return the empty journal that
    replaces the log — [of_database snapshot] + replaying the (empty)
    tail equals the original store. *)

(** {2 Segmented write-ahead log}

    The durable form of the journal: a directory holding an atomically
    replaced [MANIFEST] (a checksummed frame naming the live files), an
    optional compacted snapshot, and a list of v2 segment files.  The
    active segment rotates once it exceeds a configurable byte budget;
    {!Segmented.compact} replaces history with a fresh snapshot and
    truncates the tail.  All writes go through {!Provkit_util.Faulty_io}
    sinks, so tests (and [provctl wal --inject-fault]) can crash, tear,
    or flip the stream and measure what {!Segmented.recover}
    salvages. *)

module Segmented : sig
  type config = {
    max_segment_bytes : int;  (** rotate beyond this size *)
    group_commit_ops : int;
        (** flush once at least this many appends are pending; [1]
            (the default) keeps every append individually durable *)
    group_commit_bytes : int;
        (** ... or once this many pending bytes accumulate, whichever
            trigger fires first *)
  }

  val default_config : config
  (** 256 KiB segments, group-commit off ([group_commit_ops = 1],
      [group_commit_bytes = 64] KiB). *)

  type handle

  val open_ :
    ?config:config -> ?make_sink:(string -> Provkit_util.Faulty_io.sink) -> string -> handle
  (** Open (creating if needed) a WAL directory for appending.  A fresh
      active segment is always started: recovered segments may end in a
      torn frame, and nothing may be appended after unverifiable
      bytes.  [make_sink] lets callers interpose fault injection on the
      files being written. *)

  val append : handle -> op -> unit
  (** Frame, checksum, and write one operation; flushed according to the
      group-commit triggers ([group_commit_ops = 1] flushes before
      returning, the historical behaviour).  Rotates the active segment
      when the size budget is exceeded (pending appends are flushed
      first: a rotation never strands undurable ops in a closed
      segment). *)

  val append_batch : handle -> op list -> unit
  (** Append a whole list with one sink write and at most one flush —
      the amortized ingest path.  A crash mid-batch can tear the batch;
      recovery keeps a frame-aligned prefix of it. *)

  val durable : handle -> unit
  (** Barrier: flush any pending appends now.  After [durable] returns,
      every append made so far survives a crash (modulo injected
      faults).  A no-op when nothing is pending. *)

  val pending : handle -> int
  (** Appends written to the active sink but not yet flushed — what a
      crash right now would lose. *)

  val attach : handle -> Prov_store.t -> unit
  (** Mirror every subsequent mutation of the store into the WAL. *)

  val rotate : handle -> unit
  (** Force a segment boundary (normally automatic). *)

  val compact : handle -> Prov_store.t -> unit
  (** Write a checksummed snapshot of [store], point the manifest at it,
      drop all previous segments and snapshot, and continue appending
      into an empty segment. *)

  val close : handle -> unit
  (** Flushes pending appends, then closes the active sink. *)

  val segments : handle -> string list
  (** Live segment file names, oldest first. *)

  val generation : handle -> int
  (** Bumped by every {!compact}. *)

  val appended : handle -> int
  (** Operations appended through this handle. *)

  val active_sink : handle -> Provkit_util.Faulty_io.sink
  (** The sink of the active segment — exposed so a caller can arm
      faults on exactly the file a simulated crash should hit. *)

  type recovery = {
    store : Prov_store.t;
    ops_applied : int;  (** tail operations replayed over the snapshot *)
    segments_read : int;
    truncated : bool;  (** recovery stopped at an unverifiable frame *)
  }

  val recover : ?views:op Relstore.Matview.t -> dir:string -> unit -> recovery
  (** Rebuild a store from the manifest: load the snapshot (if any),
      then replay segments in order, stopping at the first frame that
      fails verification — the recovered store is always an op-sequence
      prefix of what was logged.  When [views] is given, the registry
      is rebuilt from {!ops_of_store} of the recovered store, so its
      views come back snapshot-consistent with the tables even after a
      torn tail. *)

  val manifest_check : dir:string -> unit -> Provkit_obs.Health.verdict * string
  (** The manifest-sanity judgment: decodes the manifest and verifies
      every file it names exists.  Missing directory/manifest reads as
      [Degraded] (nothing durable yet); an undecodable manifest or one
      naming absent files reads as [Failing]. *)

  val register_manifest_check : dir:string -> unit
  (** Register {!manifest_check} with {!Provkit_obs.Health} under
      {!Provkit_obs.Names.health_wal_manifest}. *)
end
