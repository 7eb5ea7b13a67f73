(** Query execution over tables: selection with index acceleration,
    ordering, limits, counts and grouped counts.

    Each operation has one implementation, a pipeline run at an
    instrumentation {!level}: its plain entry point ([select], …) runs
    it at [Off], its [_at] entry point at any level — [Stats] backs the
    [EXPLAIN] surface, [Profile] EXPLAIN ANALYZE.  Every execution, at
    any level, records the chosen plan, rows scanned vs. returned, and a
    latency histogram through {!Provkit_obs} (one branch of overhead
    when observability is off). *)

type order = Asc of string | Desc of string

type plan =
  | Full_scan
  | Index_eq of string  (** index name used for an equality probe *)
  | Index_range of string

val plan_for : Table.t -> Predicate.t -> plan [@@provlint.allow "unused-export"]
(** The access path {!select} will use for this predicate: an exact-match
    index over a prefix of the predicate's conjunctive equalities, else a
    range index, else a scan.  No program asks for the plan without
    running the query; the planner tests read it here. *)

val plan_name : plan -> string
(** ["full_scan"], ["index_eq"] or ["index_range"] — the label used in
    metric names and trace attributes. *)

type plan_detail = {
  chosen : plan;
  estimated_rows : int;
      (** with fresh catalog statistics ([est_from_stats = true]): the
          estimated rows the query will {e return}, from
          {!Stats.selectivity}; without: the pre-catalog heuristic — an
          exact candidate count from an index probe for the index paths
          (residual predicates ignored), the table cardinality for a
          scan *)
  table_rows : int;  (** the table's total cardinality, for context *)
  est_from_stats : bool;  (** the estimate came from a fresh catalog entry *)
}

val plan_detail : Table.t -> Predicate.t -> plan_detail
(** {!plan_for} plus estimated rows.  Uses the statistics catalog when
    {!Stats.fresh} has an entry for the table (ticking
    [prov.stats.estimates.total]), else falls back to
    {!plan_detail_heuristic}.  Never executes the query. *)

val plan_detail_heuristic : Table.t -> Predicate.t -> plan_detail
(** The pre-catalog estimator, kept callable so estimate quality can be
    compared against the stats-guided path.  Probes indexes (without
    touching the row heap) but never executes the query. *)

type exec_stats = {
  plan : plan;  (** the access path actually used *)
  rows_scanned : int;  (** candidate rows the access path examined *)
  rows_returned : int;
  elapsed_ns : int;  (** [0] when observability is disabled *)
}

type profile = {
  op : string;  (** operator: [select]/[probe]/[fetch]/[filter]/[sort]/[limit]/… *)
  detail : string;  (** e.g. [index_eq(node_url)], [residual_predicate] *)
  rows_in : int;
  rows_out : int;
  est_rows : int option;
      (** the catalog's estimate of [rows_out], present on the probe,
          filter and aggregate phases (and the select root) when the
          table had fresh statistics at execution — the
          estimated-vs-actual column EXPLAIN ANALYZE prints *)
  dur_ns : int;
  children : profile list;
}

(** {2 Levels and profiling (EXPLAIN ANALYZE)}

    Every operation runs as one pipeline — probe → fetch → filter →
    aggregate/sort → limit, the first three fused into a single fold
    over the access path — at one of three instrumentation levels.  The
    level decides only three things: whether phase boundaries read the
    clock, whether a {!profile} tree is built, and whether the
    matview-source and result-cache funnels may answer.  Every run that
    executes feeds the [prov.query.*] metrics and the slow-query log the
    same way, whatever its level.

    - [Off]: the plain entry points.  A fresh matview source or the
      result cache may answer; nothing is returned besides the result.
    - [Stats]: always executes, and returns the {!exec_stats}.
    - [Profile]: always executes, reads the clock at every phase
      boundary, and returns the stats plus the operator profile.  Laps
      share boundary timestamps, so the leaves tile the root's [dur_ns]
      exactly; inside the fused fold a boundary falls on every row, so
      profile timings include those clock reads.  Profile timing does
      not depend on the observability switch, and a profiled run feeds
      the misestimate detector: when the actual and stats-estimated
      row counts differ by more than 10x in either direction, it ticks
      [prov.stats.misestimates.total] and records a [stats.misestimate]
      flight-recorder incident. *)

type _ level =
  | Off : unit level
  | Stats : exec_stats level
  | Profile : (exec_stats * profile) level

val select :
  ?where:Predicate.t ->
  ?order_by:order list ->
  ?limit:int ->
  Table.t ->
  (int * Row.t) list
(** Rows satisfying [where] (default all), ordered by [order_by] (default
    row id), truncated to [limit]: {!select_at} [Off].

    Served from the epoch-validated result cache when possible (see
    {!set_cache_enabled}): a repeat of a query against an unmodified
    table returns the stored result without touching the heap, and is
    observationally identical to a cold run.  Predicates containing
    [Predicate.Custom] always run cold.  Cached rows alias the rows a
    cold run would have returned — treat them as read-only, exactly as
    rows fetched from the table itself. *)

val select_at :
  'i level ->
  ?where:Predicate.t ->
  ?order_by:order list ->
  ?limit:int ->
  Table.t ->
  (int * Row.t) list * 'i
(** {!select} at a level.  The [Profile] tree has children
    [probe; fetch; filter; sort; limit]. *)

val count : ?where:Predicate.t -> Table.t -> int

val count_at : 'i level -> ?where:Predicate.t -> Table.t -> int * 'i
(** Profile children: [probe; fetch; filter].  Counts inside the fold,
    without materializing candidate rows. *)

val group_count : by:string -> ?where:Predicate.t -> Table.t -> (Value.t * int) list
(** Row counts grouped by a column's value, sorted descending by count.
    Goes through the same plan selection as {!select}: an index
    satisfying [where] narrows the scanned candidates. *)

val group_count_at :
  'i level -> by:string -> ?where:Predicate.t -> Table.t -> (Value.t * int) list * 'i
(** Profile children: [probe; fetch; aggregate; sort]. *)

val profile_to_json : profile -> string
(** One nested JSON object
    [{"op":..,"detail":..,"rows_in":..,"rows_out":..,"dur_ns":..,
      "children":[..]}]. *)

val render_profile : profile -> string
(** Indented operator tree: one line per node with rows in/out, percent
    of the root's duration, and milliseconds. *)

val set_query_span_threshold_ns : int -> unit
(** Adjust the slow-query span threshold (default 100 µs): queries at
    least this slow record a trace span; all queries still feed the
    counters and latency histogram.  [0] traces every query. *)

(** {2 Result cache}

    At level [Off] a single-table query is its own key: the value
    (table uid, {!shape}, predicate), compared structurally.  The plain
    {!select}, {!count} and {!group_count} entry points look it up in a
    process-wide bounded LRU validated against {!Table.epoch}: any
    mutation of the table invalidates its cached results on the next
    lookup.  A predicate containing [Predicate.Custom] has no key (see
    {!Predicate.cacheable}) and always runs cold.  Only level [Off]
    consults the cache — instrumented callers asked to observe the
    execution.  Hits, misses, evictions and invalidations tick the
    [prov.query.cache.*] metrics. *)

type shape =
  | Select of order list * int option  (** [select ~order_by ?limit] *)
  | Count
  | Group_count of string  (** [group_count ~by] *)
(** What a single-table query computes after filtering: with the table
    and the predicate, the query's key. *)

val set_cache_enabled : bool -> unit
(** Default enabled.  Disabling does not clear stored entries (they are
    epoch-checked on any later lookup anyway); use {!clear_cache} to
    also drop them. *)

val set_cache_capacity : int -> unit
(** Default 512 entries; shrinking evicts immediately; [0] caches
    nothing. *)

val clear_cache : unit -> unit

(** {2 Materialized-view sources}

    A registered matview source answers one {!shape} over a whole table
    (predicate {!Predicate.True}) straight from incrementally maintained
    state, before the LRU cache is even consulted.  It is found by key
    equality: a query with any other shape or predicate, and any query
    while the source's [fresh] check fails, falls through to the cache
    and the cold path.  Serves tick [prov.matview.serves.total]. *)

val register_matview_source :
  table:Table.t ->
  shape:shape ->
  fresh:(unit -> bool) ->
  payload:(unit -> Query_cache.payload) ->
  unit
(** Registering again for the same (table, shape) replaces the previous
    source.  [fresh] should compare a stamped {!Table.epoch} against
    the current one so direct table mutations that bypassed the view's
    feed path disqualify it. *)

val clear_matview_sources : unit -> unit
