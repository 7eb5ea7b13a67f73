(** A small SQL-ish query language over the storage engine.

    Grammar (case-insensitive keywords):

    {v
    query   := SELECT cols FROM table [WHERE cond] [GROUP BY col]
               [ORDER BY col [ASC|DESC] {, col [ASC|DESC]}] [LIMIT n]
    cols    := '*' | agg | col ',' COUNT( '*' )   (with GROUP BY)
             | col {',' col}
    agg     := COUNT( '*' ) | SUM(col) | AVG(col) | MIN(col) | MAX(col)
    cond    := or-expr;  OR < AND < NOT in binding strength; parentheses ok
    atom    := col op literal
             | col IS [NOT] NULL
             | col LIKE 'substring'        (case-insensitive contains)
             | col BETWEEN literal AND literal
    op      := = | <> | != | < | <= | > | >=
    literal := integer | float | 'string' | TRUE | FALSE | NULL
    v}

    Queries compile to {!Predicate} trees and run through {!Query_exec},
    so the index planner applies exactly as for programmatic queries. *)

type aggregate = Count_star | Sum of string | Avg of string | Min of string | Max of string

type ast = {
  projection : [ `All | `Aggregate of aggregate | `Columns of string list ];
  table : string;
  where : Predicate.t;
  group_by : string option;
      (** with GROUP BY, the projection must be [`Columns [group_col]]
          plus an implicit count — i.e. [SELECT col, COUNT( '*' ) FROM t
          GROUP BY col] *)
  order_by : Query_exec.order list;
  limit : int option;
}

exception Parse_error of string

val parse : string -> ast
(** Raises {!Parse_error} with a human-readable message. *)

type result = { columns : string list; rows : Value.t list list }

val execute : Database.t -> ast -> result
(** {!execute_at} [Stats] without the stats: a statement always
    executes, never answered from the result cache.  Raises
    {!Errors.No_such_table} / {!Errors.No_such_column} for references
    the schema cannot satisfy. *)

val execute_at : 'i Query_exec.level -> Database.t -> ast -> result * 'i
(** {!execute} at an executor level: [Stats] adds the executor's
    statistics (plan used, rows scanned vs. returned, latency) for the
    query's table access, [Profile] also the per-operator profile tree,
    whose root covers the executor work (result shaping — projection,
    aggregate folds — happens outside it).  [Off] may be answered by
    the executor's result cache. *)

val query : Database.t -> string -> result
(** [parse] + [execute]. *)

val render : result -> string
(** Aligned table with a header, for CLI display. *)

val plan_to_string : Query_exec.plan -> string
(** ["full scan"] or ["index <name> (eq|range)"]. *)

val explain : Database.t -> string -> string
(** The access path the planner chose, without executing:
    [plan_to_string (Query_exec.plan_for ...)] on the parsed query. *)

type explain_report = {
  table : string;
  plan : Query_exec.plan;  (** always equals [Query_exec.plan_for] on the query *)
  estimated_rows : int;  (** {!Query_exec.plan_detail}'s estimate *)
  est_from_stats : bool;  (** the estimate used a fresh catalog entry *)
  stats : Query_exec.exec_stats;
}

val explain_query : Database.t -> string -> explain_report
(** Parse, plan, and {e execute} the query, returning the planner's
    choice alongside measured rows scanned / returned and latency —
    the [provctl sql --explain] surface. *)

val render_explain : explain_report -> string
(** Multi-line human-readable rendering of a report. *)

type analyze_report = {
  a_table : string;
  a_plan : Query_exec.plan;
  a_estimated_rows : int;
  a_est_from_stats : bool;
  a_stats : Query_exec.exec_stats;
  a_profile : Query_exec.profile;
}

val analyze_query : Database.t -> string -> analyze_report
(** EXPLAIN ANALYZE: parse, plan, and execute the query through
    {!execute_at} [Profile] — the [provctl sql --analyze] surface.
    Analyzes the table into the statistics catalog first when its entry
    is missing or stale, so the report's estimates (and the profile's
    per-operator [est_rows]) always come from fresh statistics. *)

val estimate_error : analyze_report -> float
(** Actual/estimated mismatch factor on returned rows, [>= 1.0]
    (1.0 = perfect estimate). *)

val render_analyze : analyze_report -> string
(** The {!render_explain} header (latency taken from the profile root,
    estimate error against the returned-row count) followed by the
    indented operator tree with rows in/out, catalog estimates where
    available, and percent of total per node. *)

val analyze_to_json : analyze_report -> string
(** One JSON object with the header fields and the raw profile tree. *)
