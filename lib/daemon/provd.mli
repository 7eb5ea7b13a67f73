(** provd: concurrent serving front-end with snapshot-isolated reads.

    {!start} spawns, on OCaml domains: N deterministic producer
    sessions feeding a bounded queue; one ingest loop that owns the
    store, drains the queue in batches through [Capture.handle_batch],
    folds each batch's ops into a live relational image
    ({!Core.Prov_schema.apply}) and the WAL group-commit path, and
    publishes immutable read snapshots of the image (O(1) in the
    history's size) at batch boundaries; M read workers querying the latest
    snapshot lock-free; and a background job runner (stats analyze on
    the snapshot, telemetry pulse) that requests owner jobs (WAL
    compaction, matview rebuild) instead of touching owner state.  The
    ingest loop's domain is not stopped with the instance: the next
    {!start} reuses it ({!Worker_pool}).

    {!wait} runs the clean shutdown: sessions finish, the queue closes,
    the ingest loop drains every remaining event and makes the WAL
    durable, then background and readers stop.  Nothing is dropped. *)

type config = {
  sessions : int;
  events_per_session : int;
  queue_capacity : int;
  batch_size : int;
  snapshot_every : int;  (** publish a read snapshot every N batches *)
  read_workers : int;
  read_mix : float;  (** per pushed event, probability a session also reads *)
  analyze_every : int;
      (** every N batches the background runner checks the latest
          snapshot and runs a stats analyze on it when its total row
          count is at least double the count at the previous analyze
          (the first non-empty snapshot always qualifies); 0 = never *)
  compact_every : int;  (** request WAL compaction every N batches; 0 = never *)
  seed : int;
  wal_dir : string option;
}

val default : config
(** 4 sessions x 200 events, batches of 32, snapshot every 4 batches,
    2 read workers, 25% read mix, no WAL. *)

type snapshot = {
  db : Relstore.Database.t;
      (** a {!Relstore.Database.snapshot} of the live image: immutable *)
  seq : int;  (** events applied when it was built — always a batch boundary *)
  generation : int;  (** publish count, strictly increasing *)
}

type report = {
  r_events : int;
  r_batches : int;
  r_snapshots : int;
  r_reads : int;
  r_read_p99_ns : int;  (** 0 when no reads were served *)
  r_elapsed_ns : int;
  r_queue : Event_queue.stats;
  r_jobs : int;
  r_wal_appended : int;
  r_applied : Browser.Event.t list;  (** every ingested event, in applied order *)
  r_batch_seqs : int list;  (** cumulative applied count at each batch boundary *)
  r_node_kinds : (int * int) list;  (** final matview values *)
  r_edge_kinds : (int * int) list;
}

type t

val start : config -> t
(** Spawn the fleet.  Raises [Invalid_argument] on a nonsensical
    config. *)

val wait : t -> report
(** Join everything in shutdown order.  Call exactly once. *)

val run : config -> report
(** [wait (start cfg)]. *)

val current_snapshot : t -> snapshot option
(** The latest published snapshot — callable from any domain while the
    daemon runs (the property tests sample it mid-flight). *)

val register_health_check : t -> unit
(** Register the [health.daemon.queue] admission check with
    {!Provkit_obs.Health}. *)
