(** The metrics registry: monotonic counters, gauges, and log-linear
    latency histograms with O(1), allocation-free recording.

    Instrumented modules intern a handle once ([counter], [gauge],
    [histogram] — idempotent per name) and record through it; with the
    registry disabled every record is a single branch.  The [PROV_OBS]
    environment variable ([off]/[0]/[false] to disable; default on)
    sets the initial switch; {!set_enabled} overrides it at run time. *)

val enabled : unit -> bool

val set_enabled : bool -> unit

(** {2 Counters} *)

type counter

val counter : string -> counter
(** Intern the counter named [name], creating it at zero.  Use names
    from {!Names} — the [@obs-check] lint rejects unregistered ones. *)

val add : counter -> int -> unit
(** Add a positive delta.  Saturates at [max_int] instead of wrapping;
    non-positive deltas are ignored (counters are monotonic). *)

val incr : counter -> unit

val value : counter -> int

val counter_value : string -> int [@@provlint.allow "unused-export"]
(** Current value by name; [0] when the counter was never interned.
    Test seam: tests read counters by name. *)

(** {2 Gauges} *)

type gauge

val gauge : string -> gauge

val set_gauge : gauge -> float -> unit

val gauge_value : string -> float [@@provlint.allow "unused-export"]
(** Test seam: tests read gauges by name. *)

(** {2 Histograms}

    HDR-style log-linear buckets: 16 linear sub-buckets per power of
    two, so any quantile estimate is within a factor [1 + 1/16] of the
    true order statistic, using a fixed ~1k-slot array per histogram. *)

type histogram

val histogram : string -> histogram

val observe : histogram -> int -> unit
(** Record one sample (negative samples clamp to zero).  Latency
    samples are conventionally nanoseconds. *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and record its elapsed wall time in nanoseconds; when
    the registry is disabled the thunk runs without any clock reads. *)

val quantile : histogram -> float -> float
(** [quantile h q] is the inclusive upper bound of the bucket holding
    the rank-⌈q·n⌉ order statistic, i.e. an estimate [e] with
    [true_q <= e <= true_q * (1 + 1/16) + 1].  [0.0] when empty. *)

val hist_count : histogram -> int [@@provlint.allow "unused-export"]
(** Test seam: tests read how many samples a histogram holds. *)

val bucket_of_value : int -> int
(** The bucket index a sample maps to (exposed for the property tests). *)

val bucket_bounds : int -> int * int
(** Inclusive [(lo, hi)] sample range of a bucket index. *)

(** {2 Snapshots} *)

type hist_summary = {
  hs_count : int;
  hs_sum : float;
  hs_min : int;
  hs_max : int;
  hs_p50 : float;
  hs_p95 : float;
  hs_p99 : float;
}

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_histograms : (string * hist_summary) list;
}

val snapshot : unit -> snapshot
(** Every registered metric, each section sorted by name — so two
    processes that performed the same work render identical snapshots. *)

val reset : unit -> unit [@@provlint.allow "unused-export"]
(** Zero every metric in place.  Interned handles remain valid and
    registered (they reappear in the next snapshot at zero).
    Test seam: tests zero the process-global registry between cases. *)

val render : snapshot -> string
(** Aligned text tables (counters, gauges, histograms). *)

val to_json : snapshot -> string
(** One JSON object:
    [{"counters":{..},"gauges":{..},"histograms":{name:{count,sum,min,max,p50,p95,p99}}}]. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal (shared with
    the tracer's JSONL encoder). *)

val headline : snapshot -> string
(** One compact line of the headline counters (events ingested, WAL
    appends, queries, query latency quantiles) for embedding in
    experiment reports. *)
