(** Metric-name registry: the single source of truth checked by the
    [@obs-check] lint.  Use these constants — never a raw string — when
    recording a metric; an unregistered "prov.x.y" literal anywhere under
    [lib/] or [bin/] fails the build's lint alias. *)

val browser_events : string
(** Events the browser engine broadcast to its observers. *)

val capture_events : string
(** Events the provenance capture layer ingested (all kinds). *)

val capture_visit : string

val capture_close : string

val capture_tab_opened : string

val capture_tab_closed : string

val capture_bookmark : string

val capture_search : string

val capture_download : string

val capture_form : string

val journal_appends : string
(** Ops appended to an in-memory [Prov_log.t] journal. *)

val wal_appends : string
(** Ops appended to a segmented WAL. *)

val wal_fsyncs : string
(** [fsync(2)] calls issued by the segmented WAL, counted where each is
    made: commit syncs (one covers every commit handed off while the
    previous one ran), one per segment header, snapshot or manifest
    file written, and one per directory sync. *)

val wal_rotations : string

val wal_compactions : string

val wal_snapshots : string

val wal_bytes_written : string

val wal_recoveries : string
(** Completed [Segmented.recover] runs. *)

val wal_recovered_ops : string

val wal_recovered_segments : string

val wal_recoveries_truncated : string
(** Recoveries that stopped at a damaged frame. *)

val wal_batch_ops : string
(** Histogram of ops per commit (one group-commit trigger). *)

val wal_fsyncs_per_append : string
(** Gauge: commit syncs per op synced over a handle's lifetime; 1.0
    means one fsync for every append, lower means group commit and
    sync coalescing are amortizing. *)

val wal_sync_ns : string
(** Histogram: wall time of each WAL [fsync(2)], in nanoseconds. *)

val wal_commit_lag_ns : string
(** Histogram: per commit, nanoseconds from its handoff to the
    committer thread until the sync covering it returned. *)

val wal_batches_per_sync : string
(** Histogram: commits covered by each commit sync — above 1 when
    commits queued while the previous sync ran. *)

val query_count : string
(** Query_exec operations executed (select/count/join/group_count). *)

val query_full_scan : string

val query_index_eq : string

val query_index_range : string

val query_rows_scanned : string
(** Rows the chosen access path examined. *)

val query_rows_returned : string

val query_latency_ns : string
(** Histogram of per-query latency in nanoseconds. *)

val query_cache_hits : string
(** Query results served from the epoch-validated cache. *)

val query_cache_misses : string
(** Cacheable queries that had to execute (absent or stale entry). *)

val query_cache_evictions : string
(** Entries dropped by the LRU bound. *)

val query_cache_invalidations : string
(** Entries found stale (table epoch moved) and removed. *)

val trace_spans : string

val trace_dropped : string
(** Spans overwritten in the ring before being drained. *)

val flight_incidents : string
(** Incidents captured by the flight recorder. *)

val matview_updates : string
(** Per-view incremental folds applied by a matview registry. *)

val matview_refreshes : string
(** Full view rebuilds (WAL replay or an explicit refresh). *)

val matview_staleness : string
(** Gauge: events seen by a registry minus the laggiest view's folds. *)

val matview_update_ns : string
(** Histogram of per-view incremental update latency in nanoseconds. *)

val matview_serves : string
(** Queries answered from a registered matview source instead of a
    table scan or the LRU cache. *)

val stats_analyzes : string
(** Statistics-catalog analyze passes completed (per table). *)

val stats_analyze_ns : string
(** Histogram of per-table analyze latency in nanoseconds. *)

val stats_estimates : string
(** Row-count estimates served from a fresh statistics catalog. *)

val stats_misestimates : string
(** Stats-guided estimates whose actual/estimated ratio exceeded the
    misestimate threshold (each also records a flight-recorder event). *)

val slowlog_notes : string
(** Queries recorded into the slow-query ring (new or deduplicated). *)

val slowlog_evictions : string
(** Slow-query fingerprints evicted by the ring's capacity bound. *)

val timeseries_points : string
(** Metric snapshots captured into a telemetry time-series ring. *)

val alert_fires : string
(** Alert-rule fire transitions (a sustained breach crossed its [for_]
    hysteresis window). *)

val alert_resolves : string
(** Alert-rule resolve transitions (a firing rule stayed clear for its
    [for_] window). *)

val alert_evaluations : string
(** Rule evaluations performed against telemetry points (one per rule
    per point pair). *)

val alert_firing_open : string
(** Gauge: alert rules currently in the firing state. *)

val telemetry_journal_appends : string
(** Records (points and alert transitions) appended to a durable
    telemetry journal. *)

val telemetry_journal_replays : string
(** Completed telemetry-journal replay passes. *)

val telemetry_journal_truncations : string
(** Replays that stopped at a damaged frame and kept a clean prefix. *)

val daemon_events_ingested : string
(** Events drained from the provd session queue into the store. *)

val daemon_batches : string
(** Group-commit batches the provd ingest loop has applied. *)

val daemon_queue_depth : string
(** Gauge: events waiting in the provd session queue. *)

val daemon_snapshots : string
(** Read snapshots published by the provd ingest loop. *)

val daemon_reads : string
(** Queries served from provd read snapshots. *)

val daemon_read_ns : string
(** Histogram: per-read latency against the published snapshot. *)

val daemon_jobs : string
(** Background maintenance jobs (analyze, pulse, compaction, matview
    rebuild) completed by provd. *)

val all : string list
(** Every registered metric name, in declaration order (span names are
    not metrics and are not listed). *)

val registered : string -> bool

(** {2 Trace span names}

    Registered here for the same reason metric names are: the
    [obs-names] lint requires every name literal passed to
    [Trace.record]/[Trace.with_span] under [lib/] to be one of these
    constants, and flags any constant that is never recorded. *)

val span_query : string
(** Slow-query spans emitted by [Query_exec]. *)

val span_wal_compact : string

val span_wal_recover : string

val span_wal_flush : string
(** Group-commit flushes of the segmented WAL's pending batch. *)

val span_stats_analyze : string
(** Statistics-catalog analyze passes ([Relstore.Stats.analyze]). *)

val span_daemon_batch : string
(** One provd ingest batch; its children are {!span_daemon_capture},
    {!span_daemon_fold}, {!span_daemon_wal} and, every
    [snapshot_every] batches, {!span_daemon_snapshot}. *)

val span_daemon_capture : string
(** [Capture.handle_batch] of one provd batch. *)

val span_daemon_fold : string
(** The matview feed and live-image apply of one provd batch. *)

val span_daemon_wal : string
(** The WAL append of one provd batch: frame encoding, the [write(2)]
    and the handoff of its sync, not the sync itself. *)

val span_daemon_snapshot : string
(** Publication of a fresh provd read snapshot. *)

(** {2 Alert rule ids}

    Dotted ["alert.<subsystem>.<what>"] constants.  The obs-names lint
    enforces the same two-way contract as for metrics: an unregistered
    alert-id-shaped literal under [lib/] or [bin/] fails the build, and
    so does a registered id no rule ever uses.  A rule's id is also its
    flight-recorder dedup key. *)

val alert_query_p99 : string
(** Query p99 latency above threshold. *)

val alert_wal_fsync_per_append : string
(** WAL fsyncs-per-append gauge above threshold (group commit not
    amortizing). *)

val alert_cache_hit_ratio : string
(** Query-cache hit ratio below threshold. *)

val alert_matview_staleness : string
(** Matview staleness gauge above threshold. *)

val alert_stats_misestimate_burn : string
(** SLO burn rate on the planner misestimate ratio. *)

val alert_capture_stalled : string
(** Capture-event signal absent (ingest stalled mid-run). *)

val alert_ids : string list
(** Every registered alert rule id, in declaration order. *)

val alert_registered : string -> bool

(** {2 Health check names}

    Dotted ["health.<subsystem>.<what>"] constants, linted both ways
    like alert ids.  These name the checks {!Health} aggregates into
    the provd readiness verdict. *)

val health_wal_manifest : string
(** The segmented WAL's manifest parses and names only existing files. *)

val health_stats_fresh : string
(** Every analyzed table's statistics are epoch-fresh. *)

val health_alerts_clear : string
(** No alert rule is currently firing (critical = failing). *)

val health_epochs_consistent : string
(** Cache/matview epochs agree with their tables (no stale serve). *)

val health_daemon_queue : string
(** The provd session queue is accepting events and not saturated. *)

val health_names : string list
(** Every registered health check name, in declaration order. *)

val health_registered : string -> bool
