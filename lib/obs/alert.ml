(* The alert-rule engine: declarative rules evaluated against pairs of
   consecutive Timeseries points.  Evaluation happens on pulse points
   (a few hundred per run), never per record — the hot ingest path pays
   nothing for alerting.

   Each rule reads one derived signal (a counter rate, a gauge level, a
   histogram quantile, or a ratio of those) and applies one condition
   (threshold, rate-of-change, absence, SLO burn rate).  Transitions
   have hysteresis: the condition must hold continuously for [r_for_ns]
   before the rule fires, and must stay clear for the same duration
   before it resolves — a signal oscillating across the threshold
   faster than the window never fires at all.

   A fire appends to the bounded transition log, ticks
   {!Names.alert_fires}, and records a flight incident deduplicated by
   rule id, so a rule that fires on every evaluation cannot wash the
   16-slot incident ring away. *)

type severity = Info | Warning | Critical

type signal =
  | Counter_rate of string  (* counter delta per second *)
  | Counter_delta of string  (* raw counter delta between the points *)
  | Gauge_value of string  (* gauge level at the newer point *)
  | Hist_p99 of string  (* p99 of a histogram at the newer point *)
  | Hist_count_rate of string  (* histogram sample-count delta per second *)
  | Ratio of signal * signal  (* a / b; no value when b = 0 *)
  | Sum of signal * signal

type condition =
  | Above of float
  | Below of float
  | Roc_above of float  (* signal change per second above threshold *)
  | Absent  (* the signal produced nothing (or no data at all) *)
  | Burn_rate of { budget : float; factor : float }
      (* the signal (a failure ratio) exceeds budget * factor *)

type rule = {
  r_id : string;
  r_signal : signal;
  r_condition : condition;
  r_for_ns : int64;
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
  tr_seq : int;  (* 1-based, monotonic across the process *)
  tr_rule : string;
  tr_kind : kind;
  tr_ns : int64;
  tr_value : float;
  tr_severity : severity;
}

let m_fires = Metrics.counter Names.alert_fires
let m_resolves = Metrics.counter Names.alert_resolves
let m_evaluations = Metrics.counter Names.alert_evaluations
let g_firing = Metrics.gauge Names.alert_firing_open

let log_cap = 64

(* Engine state: the rule registry (insertion-ordered), the bounded
   transition log ([log_total] keeps counting past the cap), the
   previous point fed, and the installed/replaying flags. *)
let rules : (string * state) list ref = ref []
let log : (unit, transition) Provkit_util.Ring.t = Provkit_util.Ring.create log_cap
let log_total = ref 0
let prev_point : Timeseries.point option ref = ref None
let installed = ref false
let replaying = ref false
let transition_hooks : (transition -> unit) list ref = ref []

let severity_name = function Info -> "info" | Warning -> "warning" | Critical -> "critical"
let kind_name = function Fire -> "fire" | Resolve -> "resolve"

let register rule =
  let st =
    {
      st_rule = rule;
      st_firing = false;
      st_breach_since = None;
      st_clear_since = None;
      st_last_value = None;
      st_last_ns = 0L;
      st_fires = 0;
      st_resolves = 0;
    }
  in
  rules := List.filter (fun (id, _) -> id <> rule.r_id) !rules @ [ (rule.r_id, st) ]

let unregister id = rules := List.filter (fun (id', _) -> id' <> id) !rules
let states () = List.map snd !rules
let firing () = List.filter (fun st -> st.st_firing) (states ())
let find id = List.assoc_opt id !rules

let transitions () = Provkit_util.Ring.to_list log
let transitions_recorded () = !log_total

let add_transition_hook f = transition_hooks := !transition_hooks @ [ f ]
let clear_transition_hooks () = transition_hooks := []

let clear_log () =
  Provkit_util.Ring.clear log;
  log_total := 0

let reset () =
  rules := [];
  clear_log ();
  prev_point := None

(* --- signal evaluation --- *)

let counter_of (snap : Metrics.snapshot) name =
  match List.assoc_opt name snap.Metrics.snap_counters with
  | Some v -> float_of_int v
  | None -> 0.0

let gauge_of (snap : Metrics.snapshot) name =
  Option.value ~default:0.0 (List.assoc_opt name snap.Metrics.snap_gauges)

let hist_of (snap : Metrics.snapshot) name = List.assoc_opt name snap.Metrics.snap_histograms

(* Counter deltas clamp at zero across a registry reset, the same rule
   {!Timeseries.deltas_between} applies. *)
let delta older newer = if newer < older then 0.0 else newer -. older

let rec eval_signal ~(older : Timeseries.point) ~(newer : Timeseries.point) signal =
  let dt_s =
    let dt = Int64.to_float (Int64.sub newer.Timeseries.pt_ns older.Timeseries.pt_ns) /. 1e9 in
    if dt > 0.0 then dt else 0.0
  in
  let per_second d = if dt_s > 0.0 then Some (d /. dt_s) else None in
  match signal with
  | Counter_rate name ->
    per_second
      (delta
         (counter_of older.Timeseries.pt_snap name)
         (counter_of newer.Timeseries.pt_snap name))
  | Counter_delta name ->
    Some
      (delta
         (counter_of older.Timeseries.pt_snap name)
         (counter_of newer.Timeseries.pt_snap name))
  | Gauge_value name ->
    let v = gauge_of newer.Timeseries.pt_snap name in
    if Float.is_finite v then Some v else None
  | Hist_p99 name -> (
    match hist_of newer.Timeseries.pt_snap name with
    | Some s when s.Metrics.hs_count > 0 -> Some s.Metrics.hs_p99
    | _ -> None)
  | Hist_count_rate name ->
    let count snap =
      match hist_of snap name with
      | Some s -> float_of_int s.Metrics.hs_count
      | None -> 0.0
    in
    per_second (delta (count older.Timeseries.pt_snap) (count newer.Timeseries.pt_snap))
  | Ratio (a, b) -> (
    match (eval_signal ~older ~newer a, eval_signal ~older ~newer b) with
    | Some va, Some vb when vb <> 0.0 ->
      let r = va /. vb in
      if Float.is_finite r then Some r else None
    | _ -> None)
  | Sum (a, b) -> (
    match (eval_signal ~older ~newer a, eval_signal ~older ~newer b) with
    | Some va, Some vb -> Some (va +. vb)
    | _ -> None)

(* [Some true]: condition breached; [Some false]: clear; [None]: no
   data, leave the hysteresis timers untouched. *)
let eval_condition st value ~dt_s =
  match st.st_rule.r_condition with
  | Absent -> Some (match value with None -> true | Some v -> v = 0.0)
  | _ -> (
    match value with
    | None -> None
    | Some v -> (
      match st.st_rule.r_condition with
      | Above t -> Some (v > t)
      | Below t -> Some (v < t)
      | Burn_rate { budget; factor } -> Some (v > budget *. factor)
      | Roc_above t -> (
        match st.st_last_value with
        | Some prev when dt_s > 0.0 -> Some ((v -. prev) /. dt_s > t)
        | _ -> None)
      | Absent -> assert false))

(* --- transitions --- *)

let note_transition st kind now value =
  log_total := !log_total + 1;
  let tr =
    {
      tr_seq = !log_total;
      tr_rule = st.st_rule.r_id;
      tr_kind = kind;
      tr_ns = now;
      tr_value = value;
      tr_severity = st.st_rule.r_severity;
    }
  in
  ignore (Provkit_util.Ring.push log tr);
  if not !replaying then begin
    (match kind with Fire -> Metrics.incr m_fires | Resolve -> Metrics.incr m_resolves);
    Metrics.set_gauge g_firing (float_of_int (List.length (firing ())));
    if kind = Fire then
      Flight.record ~dedup:st.st_rule.r_id
        ~attrs:
          [
            ("rule", st.st_rule.r_id);
            ("severity", severity_name st.st_rule.r_severity);
            ("value", Printf.sprintf "%g" value);
            ("describe", st.st_rule.r_describe);
          ]
        "alert.fired";
    List.iter (fun f -> f tr) !transition_hooks
  end

(* --- the hysteresis state machine --- *)

let step st ~now ~value ~dt_s =
  if not !replaying then Metrics.incr m_evaluations;
  let breach = eval_condition st value ~dt_s in
  (match breach with
  | None -> ()
  | Some true ->
    st.st_clear_since <- None;
    (match st.st_breach_since with None -> st.st_breach_since <- Some now | Some _ -> ());
    if not st.st_firing then begin
      match st.st_breach_since with
      | Some t0 when Int64.sub now t0 >= st.st_rule.r_for_ns ->
        st.st_firing <- true;
        st.st_fires <- st.st_fires + 1;
        note_transition st Fire now (Option.value ~default:0.0 value)
      | _ -> ()
    end
  | Some false ->
    st.st_breach_since <- None;
    if st.st_firing then begin
      (match st.st_clear_since with None -> st.st_clear_since <- Some now | Some _ -> ());
      match st.st_clear_since with
      | Some t0 when Int64.sub now t0 >= st.st_rule.r_for_ns ->
        st.st_firing <- false;
        st.st_resolves <- st.st_resolves + 1;
        st.st_clear_since <- None;
        note_transition st Resolve now (Option.value ~default:0.0 value)
      | _ -> ()
    end
    else st.st_clear_since <- None);
  (match value with Some v -> st.st_last_value <- Some v | None -> ());
  st.st_last_ns <- now

let evaluate ~older ~newer =
  let dt_s =
    let dt = Int64.to_float (Int64.sub newer.Timeseries.pt_ns older.Timeseries.pt_ns) /. 1e9 in
    if dt > 0.0 then dt else 0.0
  in
  List.iter
    (fun (_, st) ->
      let value = eval_signal ~older ~newer st.st_rule.r_signal in
      step st ~now:newer.Timeseries.pt_ns ~value ~dt_s)
    !rules

let feed point =
  (match !prev_point with
  | Some older when older.Timeseries.pt_ns <= point.Timeseries.pt_ns ->
    evaluate ~older ~newer:point
  | _ -> ());
  prev_point := Some point

let install () =
  if not !installed then begin
    installed := true;
    Timeseries.add_observer feed
  end

let replay_history points =
  replaying := true;
  Fun.protect ~finally:(fun () -> replaying := false) @@ fun () -> List.iter feed points

(* --- the default rule catalog --- *)

let defaults =
  [
    {
      r_id = Names.alert_query_p99;
      r_signal = Hist_p99 Names.query_latency_ns;
      r_condition = Above 200e6;
      r_for_ns = 1_000_000L;
      r_severity = Critical;
      r_describe = "query p99 latency above the paper's 200 ms budget";
    };
    {
      r_id = Names.alert_wal_fsync_per_append;
      r_signal = Gauge_value Names.wal_fsyncs_per_append;
      r_condition = Above 1.5;
      r_for_ns = 1_000_000L;
      r_severity = Warning;
      r_describe = "WAL issuing more fsyncs than appends (group commit not amortizing)";
    };
    {
      r_id = Names.alert_cache_hit_ratio;
      r_signal =
        Ratio
          ( Counter_delta Names.query_cache_hits,
            Sum (Counter_delta Names.query_cache_hits, Counter_delta Names.query_cache_misses)
          );
      r_condition = Below 0.1;
      r_for_ns = 1_000_000L;
      r_severity = Warning;
      r_describe = "query-cache hit ratio below 10% over the window";
    };
    {
      r_id = Names.alert_matview_staleness;
      r_signal = Gauge_value Names.matview_staleness;
      r_condition = Above 512.0;
      r_for_ns = 1_000_000L;
      r_severity = Warning;
      r_describe = "a materialized view lags the capture stream by >512 events";
    };
    {
      r_id = Names.alert_stats_misestimate_burn;
      r_signal =
        Ratio (Counter_delta Names.stats_misestimates, Counter_delta Names.stats_estimates);
      r_condition = Burn_rate { budget = 0.05; factor = 2.0 };
      r_for_ns = 1_000_000L;
      r_severity = Warning;
      r_describe = "planner misestimate ratio burning >2x its 5% budget";
    };
    {
      r_id = Names.alert_capture_stalled;
      r_signal = Counter_delta Names.capture_events;
      r_condition = Absent;
      r_for_ns = 1_000_000L;
      r_severity = Info;
      r_describe = "no capture events between telemetry points (ingest stalled)";
    };
  ]

let install_defaults () =
  List.iter register defaults;
  install ()

(* --- rendering --- *)

let prometheus_states () =
  let buf = Buffer.create 256 in
  if !rules <> [] then begin
    Buffer.add_string buf "# TYPE prov_alert_state gauge\n";
    List.iter
      (fun (_, st) ->
        Buffer.add_string buf
          (Printf.sprintf "prov_alert_state{rule=\"%s\"} %d\n" st.st_rule.r_id
             (if st.st_firing then 1 else 0)))
      (List.sort (fun (a, _) (b, _) -> String.compare a b) !rules)
  end;
  Buffer.contents buf

let render () =
  Provkit_util.Table_fmt.render
    ~aligns:Provkit_util.Table_fmt.[ Left; Left; Left; Right; Right; Right ]
    ~header:[ "rule"; "severity"; "state"; "fires"; "resolves"; "last value" ]
    (List.map
       (fun st ->
         [
           st.st_rule.r_id;
           severity_name st.st_rule.r_severity;
           (if st.st_firing then "FIRING" else "ok");
           string_of_int st.st_fires;
           string_of_int st.st_resolves;
           (match st.st_last_value with None -> "-" | Some v -> Printf.sprintf "%g" v);
         ])
       (states ()))

let transition_to_json tr =
  Printf.sprintf
    "{\"seq\":%d,\"rule\":\"%s\",\"kind\":\"%s\",\"ns\":%Ld,\"value\":%g,\"severity\":\"%s\"}"
    tr.tr_seq (Metrics.json_escape tr.tr_rule) (kind_name tr.tr_kind) tr.tr_ns tr.tr_value
    (severity_name tr.tr_severity)

let to_json () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"rules\":[";
  List.iteri
    (fun i st ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"rule\":\"%s\",\"severity\":\"%s\",\"firing\":%b,\"fires\":%d,\"resolves\":%d,\"describe\":\"%s\"}"
           (Metrics.json_escape st.st_rule.r_id)
           (severity_name st.st_rule.r_severity)
           st.st_firing st.st_fires st.st_resolves
           (Metrics.json_escape st.st_rule.r_describe)))
    (states ());
  Buffer.add_string buf "],\"transitions\":[";
  List.iteri
    (fun i tr ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (transition_to_json tr))
    (transitions ());
  Buffer.add_string buf "]}";
  Buffer.contents buf
