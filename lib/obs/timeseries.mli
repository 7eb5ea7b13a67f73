(** Live telemetry time-series: a bounded ring of timestamped metric
    snapshots, and the arithmetic that turns two point-in-time
    snapshots into deltas and rates.

    {!Metrics} answers "what has this process done since it started";
    this module answers "what is it doing {e right now}".  A {!record}
    call captures [(now_ns, Metrics.snapshot ())] into the ring;
    {!deltas_between} subtracts two points, producing per-metric deltas
    and per-second rates that a live display ([provctl top]) or an
    exposition scrape can render.

    The capture and WAL layers drive the default ring through
    {!pulse}: every ingest event ticks a counter, and every
    1024th tick records a point — so sustained-load runs
    leave an evenly spaced series without any timer thread. *)

type point = {
  pt_ns : int64;  (** monotonic capture time ({!Provkit_util.Timing.now_ns}) *)
  pt_snap : Metrics.snapshot;
}

type kind = Counter | Gauge | Hist_count

type series = {
  s_name : string;
  s_kind : kind;
  s_prev : float;
  s_cur : float;
  s_delta : float;  (** [cur - prev]; counters clamp at 0 (a reset reads as idle) *)
  s_rate : float;  (** delta per second over the points' interval; 0 when dt = 0 *)
}

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity defaults to 240 points.  Raises [Invalid_argument]
    when non-positive. *)

val capacity : t -> int

val record : ?now_ns:int64 -> t -> point
(** Snapshot every registered metric into a new point (evicting the
    oldest beyond capacity) and return it.  Ticks
    {!Names.timeseries_points} and notifies every registered point
    observer. *)

val push : t -> point -> unit
(** Insert an already-built point (evicting beyond capacity) without
    snapshotting, ticking, or notifying observers — the journal-replay
    path, which must not re-trigger the hooks that wrote the journal. *)

val add_observer : (point -> unit) -> unit
(** Register a callback invoked (in registration order) with every
    point {!record} captures, into any ring.  The alert engine and the
    durable telemetry journal attach here. *)

val clear_observers : unit -> unit [@@provlint.allow "unused-export"]
(** Drop every registered observer (test teardown).
    Test seam: tests detach the observers they registered. *)

val points : t -> point list
(** Ring contents, oldest first. *)

val deltas_between : point -> point -> series list
(** Per-metric deltas and rates from the older to the newer point:
    one [Counter] row per counter, one [Gauge] row per gauge, one
    [Hist_count] row per histogram (its sample-count delta).  Metrics
    absent from the older point get [s_prev = 0].  Sorted by name. *)

val last_deltas : t -> series list option
(** {!deltas_between} over the ring's two newest points; [None] until
    the ring holds at least two. *)

val render : series list -> string
(** Aligned name/value/delta/rate table for terminal display. *)

(** {2 The default ring and the pulse hook} *)

val default : t
(** The process-wide ring the ingest layers feed. *)

val pulse : unit -> unit
(** Tick the pulse counter; every 1024th tick records a point into
    {!default}.  One branch when {!Metrics.enabled} is
    false.  Capture calls this per ingested event, the segmented WAL
    per appended op. *)

(** {2 Prometheus text exposition} *)

val prometheus : Metrics.snapshot -> string
(** The snapshot in Prometheus text exposition format: counters as
    [counter], gauges as [gauge], histograms as [summary] (quantile
    series plus [_sum]/[_count]).  Metric names have their dots
    mangled to underscores ([prov.wal.appends.total] →
    [prov_wal_appends_total]). *)
