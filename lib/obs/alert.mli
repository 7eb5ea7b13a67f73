(** The declarative alert-rule engine over the telemetry ring.

    Rules read derived {!signal}s from pairs of consecutive
    {!Timeseries.point}s — counter rates, gauge levels, histogram
    quantiles, ratios — and apply one {!condition}.  Evaluation happens
    on pulse points (via a {!Timeseries} observer installed by
    {!install}), never per captured record, so the ingest hot path pays
    nothing.

    {b Hysteresis}: a condition must hold continuously for the rule's
    [r_for_ns] before it fires, and must stay clear for the same
    duration before it resolves.  A signal oscillating across the
    threshold faster than the window never fires; a sustained breach
    fires exactly once and, once sustainedly clear, resolves exactly
    once.

    A fire appends to a bounded transition log, ticks
    {!Names.alert_fires}, notifies registered transition hooks (the
    durable telemetry journal attaches here), and records a flight
    incident deduplicated by rule id so repeated fires cannot wash the
    16-slot incident ring away. *)

type severity = Info | Warning | Critical

(** Derived reading of a point pair. *)
type signal =
  | Counter_rate of string  (** counter delta per second *)
  | Counter_delta of string  (** raw counter delta between the points *)
  | Gauge_value of string  (** gauge level at the newer point *)
  | Hist_p99 of string  (** p99 at the newer point; no value when empty *)
  | Hist_count_rate of string  (** histogram sample-count delta per second *)
  | Ratio of signal * signal  (** [a / b]; no value when [b = 0] *)
  | Sum of signal * signal

type condition =
  | Above of float
  | Below of float
  | Roc_above of float  (** signal change per second above threshold *)
  | Absent  (** the signal produced no data (or exactly zero) *)
  | Burn_rate of { budget : float; factor : float }
      (** the signal (a failure ratio) exceeds [budget *. factor] *)

type rule = {
  r_id : string;
      (** dotted ["alert.<subsystem>.<what>"]; lib/bin ids must be
          registered as [alert_*] constants in {!Names} (enforced by
          the obs-names lint).  Doubles as the flight-recorder dedup key. *)
  r_signal : signal;
  r_condition : condition;
  r_for_ns : int64;  (** hysteresis window, both to fire and to resolve *)
  r_severity : severity;
  r_describe : string;
}

type state = {
  st_rule : rule;
  mutable st_firing : bool;
  mutable st_breach_since : int64 option;
  mutable st_clear_since : int64 option;
  mutable st_last_value : float option;
  mutable st_last_ns : int64;
  mutable st_fires : int;
  mutable st_resolves : int;
}

type kind = Fire | Resolve

type transition = {
  tr_seq : int;  (** 1-based, monotonic across the process *)
  tr_rule : string;
  tr_kind : kind;
  tr_ns : int64;
  tr_value : float;
  tr_severity : severity;
}

val severity_name : severity -> string
val kind_name : kind -> string

(** {2 Registry} *)

val register : rule -> unit
(** Add (or replace, resetting its state) a rule. *)

val states : unit -> state list
(** All rule states, registration order. *)

val firing : unit -> state list

val defaults : rule list
(** The built-in catalog: query p99 latency vs the 200 ms budget, WAL
    fsyncs per append, query-cache hit ratio, matview staleness,
    planner misestimate burn rate, capture stall. *)

val install_defaults : unit -> unit
(** {!register} every default rule and {!install} the observer. *)

val reset : unit -> unit
(** Drop all rules, the transition log, and the previous point
    (test teardown).  Hooks survive; see {!clear_transition_hooks}. *)

(** {2 Evaluation} *)

val feed : Timeseries.point -> unit
(** Evaluate every rule against (previous point, this point), then
    remember this point.  The first point only primes the engine.
    Out-of-order points (older than the previous) only re-prime. *)

val install : unit -> unit
(** Attach {!feed} as a {!Timeseries} observer (idempotent). *)

val replay_history : Timeseries.point list -> unit
(** {!feed} each point with side effects quieted: transitions land in
    the in-memory log and rule states, but metrics, flight incidents,
    and transition hooks are suppressed — replaying a journal must not
    re-journal or re-page. *)

val evaluate : older:Timeseries.point -> newer:Timeseries.point -> unit
(** One evaluation pass over an explicit pair (benchmarks, tests). *)

val eval_signal :
  older:Timeseries.point -> newer:Timeseries.point -> signal -> float option
(** The signal algebra itself; [None] means no data (empty histogram,
    zero-denominator ratio, non-finite gauge, zero-width interval). *)

(** {2 Transition log} *)

val transitions : unit -> transition list
(** Kept transitions, oldest first (bounded at 64). *)

val transitions_recorded : unit -> int
(** Total transitions, including ones rolled off the bounded log. *)

val clear_log : unit -> unit

val add_transition_hook : (transition -> unit) -> unit
(** Called (in registration order) on every live fire/resolve; not
    called during {!replay_history}. *)

val clear_transition_hooks : unit -> unit [@@provlint.allow "unused-export"]
(** Test seam: tests detach the hooks they installed on this process-global list. *)

(** {2 Rendering} *)

val render : unit -> string
(** Aligned rule/severity/state/fires/resolves table. *)

val prometheus_states : unit -> string
(** One [prov_alert_state{rule="<id>"} 0|1] gauge sample per registered
    rule, sorted by id; empty string when no rules are registered. *)

val to_json : unit -> string
(** [{"rules":[..],"transitions":[..]}]. *)

val transition_to_json : transition -> string
