(* The single source of truth for metric names.  Every counter, gauge
   and histogram recorded anywhere in the tree must use a constant from
   this module; the @obs-check dune alias greps the sources for
   "prov.x.y"-shaped string literals and rejects any that this file does
   not declare.  Names are dotted, lower-case, and have at least two
   dots (so unrelated literals like "prov.db" never collide with the
   lint). *)

(* --- browser engine --- *)

let browser_events = "prov.browser.events.emitted"

(* --- provenance capture --- *)

let capture_events = "prov.capture.events.total"
let capture_visit = "prov.capture.events.visit"
let capture_close = "prov.capture.events.close"
let capture_tab_opened = "prov.capture.events.tab_opened"
let capture_tab_closed = "prov.capture.events.tab_closed"
let capture_bookmark = "prov.capture.events.bookmark"
let capture_search = "prov.capture.events.search"
let capture_download = "prov.capture.events.download"
let capture_form = "prov.capture.events.form"

(* --- in-memory journal --- *)

let journal_appends = "prov.journal.appends.total"

(* --- segmented WAL --- *)

let wal_appends = "prov.wal.appends.total"
let wal_fsyncs = "prov.wal.fsyncs.total"
let wal_rotations = "prov.wal.rotations.total"
let wal_compactions = "prov.wal.compactions.total"
let wal_snapshots = "prov.wal.snapshots.total"
let wal_bytes_written = "prov.wal.bytes.written"
let wal_recoveries = "prov.wal.recoveries.total"
let wal_recovered_ops = "prov.wal.recoveries.ops"
let wal_recovered_segments = "prov.wal.recoveries.segments"
let wal_recoveries_truncated = "prov.wal.recoveries.truncated"
let wal_batch_ops = "prov.wal.batch.ops"
let wal_fsyncs_per_append = "prov.wal.fsyncs.per_append"
let wal_sync_ns = "prov.wal.sync_ns"
let wal_commit_lag_ns = "prov.wal.commit_lag_ns"
let wal_batches_per_sync = "prov.wal.batches_per_sync"

(* --- query execution --- *)

let query_count = "prov.query.exec.total"
let query_full_scan = "prov.query.plan.full_scan"
let query_index_eq = "prov.query.plan.index_eq"
let query_index_range = "prov.query.plan.index_range"
let query_rows_scanned = "prov.query.rows.scanned"
let query_rows_returned = "prov.query.rows.returned"
let query_latency_ns = "prov.query.latency.ns"
let query_cache_hits = "prov.query.cache.hits"
let query_cache_misses = "prov.query.cache.misses"
let query_cache_evictions = "prov.query.cache.evictions"
let query_cache_invalidations = "prov.query.cache.invalidations"

(* --- tracer --- *)

let trace_spans = "prov.trace.spans.recorded"
let trace_dropped = "prov.trace.spans.dropped"

(* --- flight recorder --- *)

let flight_incidents = "prov.flight.incidents.total"

(* --- materialized views --- *)

let matview_updates = "prov.matview.updates.total"
let matview_refreshes = "prov.matview.refreshes.total"
let matview_staleness = "prov.matview.staleness.events"
let matview_update_ns = "prov.matview.update.ns"
let matview_serves = "prov.matview.serves.total"

(* --- statistics catalog --- *)

let stats_analyzes = "prov.stats.analyzes.total"
let stats_analyze_ns = "prov.stats.analyze.ns"
let stats_estimates = "prov.stats.estimates.total"
let stats_misestimates = "prov.stats.misestimates.total"

(* --- slow-query log --- *)

let slowlog_notes = "prov.slowlog.notes.total"
let slowlog_evictions = "prov.slowlog.evictions.total"

(* --- telemetry time-series --- *)

let timeseries_points = "prov.timeseries.points.total"

(* --- alert engine --- *)

let alert_fires = "prov.alert.fires.total"
let alert_resolves = "prov.alert.resolves.total"
let alert_evaluations = "prov.alert.evaluations.total"
let alert_firing_open = "prov.alert.firing.open"

(* --- durable telemetry journal --- *)

let telemetry_journal_appends = "prov.telemetry.journal.appends"
let telemetry_journal_replays = "prov.telemetry.journal.replays"
let telemetry_journal_truncations = "prov.telemetry.journal.truncations"

(* --- provd serving daemon --- *)

let daemon_events_ingested = "prov.daemon.events.ingested"
let daemon_batches = "prov.daemon.batches.total"
let daemon_queue_depth = "prov.daemon.queue.depth"
let daemon_snapshots = "prov.daemon.snapshots.published"
let daemon_reads = "prov.daemon.reads.served"
let daemon_read_ns = "prov.daemon.read.latency_ns"
let daemon_jobs = "prov.daemon.jobs.total"

let all =
  [
    browser_events;
    capture_events;
    capture_visit;
    capture_close;
    capture_tab_opened;
    capture_tab_closed;
    capture_bookmark;
    capture_search;
    capture_download;
    capture_form;
    journal_appends;
    wal_appends;
    wal_fsyncs;
    wal_rotations;
    wal_compactions;
    wal_snapshots;
    wal_bytes_written;
    wal_recoveries;
    wal_recovered_ops;
    wal_recovered_segments;
    wal_recoveries_truncated;
    wal_batch_ops;
    wal_fsyncs_per_append;
    wal_sync_ns;
    wal_commit_lag_ns;
    wal_batches_per_sync;
    query_count;
    query_full_scan;
    query_index_eq;
    query_index_range;
    query_rows_scanned;
    query_rows_returned;
    query_latency_ns;
    query_cache_hits;
    query_cache_misses;
    query_cache_evictions;
    query_cache_invalidations;
    trace_spans;
    trace_dropped;
    flight_incidents;
    matview_updates;
    matview_refreshes;
    matview_staleness;
    matview_update_ns;
    matview_serves;
    stats_analyzes;
    stats_analyze_ns;
    stats_estimates;
    stats_misestimates;
    slowlog_notes;
    slowlog_evictions;
    timeseries_points;
    alert_fires;
    alert_resolves;
    alert_evaluations;
    alert_firing_open;
    telemetry_journal_appends;
    telemetry_journal_replays;
    telemetry_journal_truncations;
    daemon_events_ingested;
    daemon_batches;
    daemon_queue_depth;
    daemon_snapshots;
    daemon_reads;
    daemon_read_ns;
    daemon_jobs;
  ]

let registered name = List.mem name all

(* --- trace span names --- *)

(* Span names are dotted lower-case constants, registered here for the
   same reason metric names are: the obs-names lint requires every name
   literal passed to [Trace.record]/[Trace.with_span] in lib/ to be one
   of these bindings, and flags any binding below that is never recorded
   anywhere in lib/ or bin/.  (They are distinguished from metric names
   by shape: no "prov." prefix with two further dotted segments.) *)

let span_query = "query"
let span_wal_compact = "wal.compact"
let span_wal_recover = "wal.recover"
let span_wal_flush = "wal.flush"
let span_stats_analyze = "stats.analyze"
let span_daemon_batch = "daemon.batch"
let span_daemon_snapshot = "daemon.snapshot"
let span_daemon_capture = "daemon.capture"
let span_daemon_fold = "daemon.fold"
let span_daemon_wal = "daemon.wal"

(* --- alert rule ids --- *)

(* Rule identities are dotted "alert.<subsystem>.<what>" constants,
   registered here under the same two-way contract as metric names: an
   unregistered alert-id-shaped literal anywhere in lib/ or bin/ fails
   the obs-names lint, and so does a registered id no rule ever uses.
   The id doubles as the flight-recorder dedup key when a rule fires. *)

let alert_query_p99 = "alert.query.p99_latency"
let alert_wal_fsync_per_append = "alert.wal.fsync_per_append"
let alert_cache_hit_ratio = "alert.cache.hit_ratio"
let alert_matview_staleness = "alert.matview.staleness"
let alert_stats_misestimate_burn = "alert.stats.misestimate_burn"
let alert_capture_stalled = "alert.capture.stalled"

let alert_ids =
  [
    alert_query_p99;
    alert_wal_fsync_per_append;
    alert_cache_hit_ratio;
    alert_matview_staleness;
    alert_stats_misestimate_burn;
    alert_capture_stalled;
  ]

let alert_registered id = List.mem id alert_ids

(* --- health check names --- *)

(* Health checks compose into the provd readiness verdict; their names
   follow the alert-id discipline ("health.<subsystem>.<what>") and are
   linted both ways too. *)

let health_wal_manifest = "health.wal.manifest"
let health_stats_fresh = "health.stats.fresh"
let health_alerts_clear = "health.alerts.clear"
let health_epochs_consistent = "health.epochs.consistent"
let health_daemon_queue = "health.daemon.queue"

let health_names =
  [
    health_wal_manifest;
    health_stats_fresh;
    health_alerts_clear;
    health_epochs_consistent;
    health_daemon_queue;
  ]

let health_registered name = List.mem name health_names
