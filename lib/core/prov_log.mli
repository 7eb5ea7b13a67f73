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
    CRC-32 ({!Provkit_util.Frame}), so corruption anywhere in
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
(** The identity: a store mutation is its own journal record, since the
    two types are one.  Library code appends mutations directly; the
    perfbench ingest replay still calls this. *)

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

val read_prefix : string -> op Provkit_util.Frame.prefix
(** Decode a v1 or v2 image (probed by magic) up to its first damaged
    record.  Under v2 that covers mid-file corruption too: the first
    record whose checksum fails ends the readable prefix.  [clean] says
    whether anything was cut.  Raises {!Relstore.Errors.Corrupt} on an
    image without a whole journal magic. *)

val of_bytes : string -> t
(** The journal holding {!read_prefix}'s records — the crash-recovery
    load.  A cut tail records a [journal.load.truncated] flight
    incident. *)

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
    truncates the tail.

    Every file is written through one append-only
    {!Provkit_util.Faulty_io} sink.  Commits are pipelined, as database
    group commit is.  A commit has two halves: the caller's thread (the
    owner) writes the bytes appended since the previous commit to the
    segment once, with [write(2)], and hands the sync off; a committer
    thread in the same domain [fsync]s the segment.  Commits handed off
    while a sync is in flight join the next sync, so one [fsync] can
    cover several commits.  {!Segmented.append} therefore returns
    before its commit is durable; {!Segmented.synced} says how many ops
    are, and {!Segmented.durable} waits for all of them.

    Segment headers, snapshot and manifest files are synced by the
    owner before the manifest rename publishes them, and the directory
    is synced after each segment is created, after each manifest rename
    and after compaction removes files, so no commit is reported synced
    before its segment's directory entry is.  The same sinks carry the
    fault model, so tests (and [provctl wal --inject-fault]) can crash,
    tear, or flip the stream and measure what {!Segmented.recover}
    salvages. *)

module Segmented : sig
  type config = {
    max_segment_bytes : int;  (** rotate beyond this size *)
    group_commit_ops : int;
        (** commit once at least this many appends are pending; [1]
            (the default) commits every append as it is made *)
    group_commit_bytes : int;
        (** ... or once this many pending bytes accumulate, whichever
            trigger fires first *)
  }

  val default_config : config
  (** 256 KiB segments, a commit per append ([group_commit_ops = 1],
      [group_commit_bytes = 64] KiB).  An append is durable once
      {!synced} counts it, not when {!append} returns. *)

  type handle

  val open_ : ?config:config -> string -> handle
  (** Open (creating if needed) a WAL directory for appending, and start
      the handle's committer thread.  A fresh active segment is always
      started: recovered segments may end in a torn frame, and nothing
      may be appended after unverifiable bytes. *)

  val append : handle -> op -> unit
  (** Frame, checksum, and write one operation to the sink; when a
      group-commit trigger fires, commit: [write(2)] the pending bytes
      and hand their sync to the committer.  Returns once the commit is
      handed off, before it is durable.  Rotates the active segment
      when the size budget is exceeded (waiting for {!durable} first: a
      rotation never strands unsynced ops in a closed segment). *)

  val append_batch : handle -> op list -> unit
  (** Append a whole list with one sink write and at most one commit —
      the amortized ingest path.  A crash mid-batch can tear the batch;
      recovery keeps a frame-aligned prefix of it. *)

  val durable : handle -> unit
  (** Barrier: commit any pending appends, then wait until every commit
      handed off so far is synced.  After [durable] returns, every
      append made so far survives a crash (modulo injected faults).
      Raises the error of a failed [fsync], if any. *)

  val synced : handle -> int
  (** Ops known durable: every op up to this count was covered by a
      completed [fsync] of its segment.  Callable from any thread. *)

  val pending : handle -> int
  (** Appends written to the active sink but not yet committed: no
      sync covers them until the next commit hands them off. *)

  val attach : handle -> Prov_store.t -> unit
  (** Mirror every subsequent mutation of the store into the WAL. *)

  val rotate : handle -> unit
  (** Force a segment boundary (normally automatic).  Calls {!durable}
      first. *)

  val compact : handle -> Prov_store.t -> unit
  (** Wait for {!durable}, write a checksummed snapshot of [store],
      point the manifest at it, drop all previous segments and
      snapshot, and continue appending into an empty segment. *)

  val close : handle -> unit
  (** Wait for {!durable}, stop and join the committer thread, then
      close the active sink.  A handle that is never closed (a crash
      test abandoning it) keeps its idle committer thread: that does
      not keep the process from exiting, but a domain cannot be joined
      while it runs one. *)

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
