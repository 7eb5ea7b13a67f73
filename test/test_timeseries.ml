(* Telemetry ring tests.  Metrics live in process-global registries
   shared with every other suite, so each assertion here works on
   deltas between two points taken inside the test (never on absolute
   counter values), and every global knob touched is restored. *)

module Metrics = Provkit_obs.Metrics
module Ts = Provkit_obs.Timeseries

let with_metrics_enabled f =
  let saved = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled saved) f

let find_series name series =
  List.find_opt (fun (s : Ts.series) -> String.equal s.Ts.s_name name) series

let feq = Alcotest.float 1e-9

let test_deltas_and_rates () =
  with_metrics_enabled @@ fun () ->
  let ring = Ts.create ~capacity:8 () in
  let c = Metrics.counter "test.timeseries.alpha" in
  let g = Metrics.gauge "test.timeseries.beta" in
  let h = Metrics.histogram "test.timeseries.gamma" in
  Metrics.incr c;
  Metrics.set_gauge g 10.0;
  let p0 = Ts.record ~now_ns:1_000_000_000L ring in
  Metrics.add c 5;
  Metrics.set_gauge g 4.0;
  Metrics.observe h 123;
  Metrics.observe h 456;
  let p1 = Ts.record ~now_ns:3_000_000_000L ring in
  let series = Ts.deltas_between p0 p1 in
  (match find_series "test.timeseries.alpha" series with
  | None -> Alcotest.fail "counter series missing"
  | Some s ->
      Alcotest.check feq "counter delta" 5.0 s.Ts.s_delta;
      (* 5 increments over exactly 2 s of synthetic time. *)
      Alcotest.check feq "counter rate" 2.5 s.Ts.s_rate);
  (match find_series "test.timeseries.beta" series with
  | None -> Alcotest.fail "gauge series missing"
  | Some s ->
      Alcotest.check feq "gauge prev" 10.0 s.Ts.s_prev;
      Alcotest.check feq "gauge cur" 4.0 s.Ts.s_cur;
      (* Gauges are levels, not monotone counters: deltas may go negative. *)
      Alcotest.check feq "gauge delta" (-6.0) s.Ts.s_delta);
  match find_series "test.timeseries.gamma" series with
  | None -> Alcotest.fail "histogram series missing"
  | Some s ->
      Alcotest.check feq "histogram count delta" 2.0 s.Ts.s_delta;
      Alcotest.check feq "histogram count rate" 1.0 s.Ts.s_rate

let test_counter_reset_clamps () =
  with_metrics_enabled @@ fun () ->
  let ring = Ts.create () in
  let c = Metrics.counter "test.timeseries.clamp" in
  Metrics.add c 100;
  let p0 = Ts.record ~now_ns:1_000_000_000L ring in
  Metrics.reset ();
  Metrics.incr (Metrics.counter "test.timeseries.clamp");
  let p1 = Ts.record ~now_ns:2_000_000_000L ring in
  match find_series "test.timeseries.clamp" (Ts.deltas_between p0 p1) with
  | None -> Alcotest.fail "series missing"
  | Some s ->
      Alcotest.check feq "reset clamps to 0" 0.0 s.Ts.s_delta;
      Alcotest.check feq "rate clamps too" 0.0 s.Ts.s_rate

let test_capacity_eviction () =
  with_metrics_enabled @@ fun () ->
  let ring = Ts.create ~capacity:3 () in
  for i = 1 to 5 do
    ignore (Ts.record ~now_ns:(Int64.of_int (i * 1_000_000)) ring)
  done;
  Alcotest.check Alcotest.int "bounded" 3 (List.length (Ts.points ring));
  let stamps = List.map (fun (p : Ts.point) -> p.Ts.pt_ns) (Ts.points ring) in
  Alcotest.(check (list int64)) "oldest evicted, order kept"
    [ 3_000_000L; 4_000_000L; 5_000_000L ]
    stamps;
  match Ts.last_deltas (Ts.create ()) with
  | None -> ()
  | Some _ -> Alcotest.fail "last_deltas on an empty ring"

let test_invalid_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Timeseries.create: capacity must be positive") (fun () ->
      ignore (Ts.create ~capacity:0 ()))

(* Every 1024th pulse records a point: 2048 pulses cross the boundary
   exactly twice, whatever the global counter's residue. *)
let test_pulse_interval () =
  with_metrics_enabled @@ fun () ->
  let points () = Metrics.value (Metrics.counter Provkit_obs.Names.timeseries_points) in
  let before = points () in
  for _ = 1 to 2048 do
    Ts.pulse ()
  done;
  Alcotest.check Alcotest.int "two points recorded" (before + 2) (points ())

let test_pulse_disabled_is_silent () =
  let saved = Metrics.enabled () in
  Metrics.set_enabled false;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled saved) @@ fun () ->
  let length () = List.length (Ts.points Ts.default) in
  let before = length () in
  for _ = 1 to 2048 do
    Ts.pulse ()
  done;
  Alcotest.check Alcotest.int "no points recorded" before (length ())

let test_prometheus_exposition () =
  with_metrics_enabled @@ fun () ->
  let c = Metrics.counter "test.timeseries.promc" in
  let g = Metrics.gauge "test.timeseries.promg" in
  let h = Metrics.histogram "test.timeseries.promh" in
  Metrics.add c 7;
  Metrics.set_gauge g 42.0;
  Metrics.observe h 1000;
  let text = Ts.prometheus (Metrics.snapshot ()) in
  let occurs needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.equal (String.sub text i nl) needle || go (i + 1)) in
    go 0
  in
  let contains needle =
    if not (occurs needle) then Alcotest.failf "exposition missing %S" needle
  in
  contains "# TYPE test_timeseries_promc counter";
  contains "test_timeseries_promc 7";
  contains "# TYPE test_timeseries_promg gauge";
  contains "test_timeseries_promg 42";
  contains "# TYPE test_timeseries_promh summary";
  contains "test_timeseries_promh{quantile=\"0.5\"}";
  contains "test_timeseries_promh_count 1";
  (* Dots must be mangled: no raw dotted metric name survives. *)
  if occurs "test.timeseries." then Alcotest.fail "unmangled metric name in exposition"

let test_render_has_all_series () =
  with_metrics_enabled @@ fun () ->
  let ring = Ts.create () in
  let c = Metrics.counter "test.timeseries.render" in
  Metrics.incr c;
  let p0 = Ts.record ~now_ns:1_000_000_000L ring in
  Metrics.add c 3;
  let p1 = Ts.record ~now_ns:2_000_000_000L ring in
  let out = Ts.render (Ts.deltas_between p0 p1) in
  if String.length out = 0 then Alcotest.fail "empty render";
  match Ts.last_deltas ring with
  | None -> Alcotest.fail "two points should yield deltas"
  | Some series -> (
      match find_series "test.timeseries.render" series with
      | Some s -> Alcotest.check feq "last_deltas agrees" 3.0 s.Ts.s_delta
      | None -> Alcotest.fail "series missing from last_deltas")

(* --- exposition edge cases ------------------------------------------- *)

let occurs_in text needle =
  let nl = String.length needle and hl = String.length text in
  let rec go i = i + nl <= hl && (String.equal (String.sub text i nl) needle || go (i + 1)) in
  go 0

let test_prometheus_nonfinite_gauges () =
  (* Prometheus text exposition spells non-finite samples "NaN", "+Inf"
     and "-Inf" — %g's "nan"/"inf" would be rejected by scrapers.  Built
     from a synthetic snapshot so no real gauge has to go non-finite. *)
  let snap =
    {
      Metrics.snap_counters = [];
      snap_gauges =
        [
          ("test.timeseries.g_nan", Float.nan);
          ("test.timeseries.g_pinf", Float.infinity);
          ("test.timeseries.g_ninf", Float.neg_infinity);
        ];
      snap_histograms = [];
    }
  in
  let text = Ts.prometheus snap in
  let contains needle =
    if not (occurs_in text needle) then Alcotest.failf "exposition missing %S" needle
  in
  contains "test_timeseries_g_nan NaN";
  contains "test_timeseries_g_pinf +Inf";
  contains "test_timeseries_g_ninf -Inf";
  if occurs_in text " nan" || occurs_in text " inf" then
    Alcotest.fail "lowercase non-finite token leaked into exposition"

let test_prometheus_empty_snapshot () =
  let empty = { Metrics.snap_counters = []; snap_gauges = []; snap_histograms = [] } in
  Alcotest.(check string) "empty snapshot, empty exposition" "" (Ts.prometheus empty)

let test_rate_guards () =
  (* Zero-width interval and non-finite gauge deltas must both read as
     rate 0, not NaN/Inf rows. *)
  let pt ns g =
    {
      Ts.pt_ns = ns;
      pt_snap =
        { Metrics.snap_counters = [ ("test.timeseries.guard_c", 5) ];
          snap_gauges = [ ("test.timeseries.guard_g", g) ]; snap_histograms = [] };
    }
  in
  (* dt = 0: every rate is 0 even with a real delta. *)
  (match find_series "test.timeseries.guard_c" (Ts.deltas_between (pt 7L 1.0) (pt 7L 1.0)) with
  | Some s -> Alcotest.check feq "zero-dt rate" 0.0 s.Ts.s_rate
  | None -> Alcotest.fail "counter series missing");
  (* NaN gauge: the delta is NaN but the rate column stays finite. *)
  (match
     find_series "test.timeseries.guard_g"
       (Ts.deltas_between (pt 1_000_000_000L 1.0) (pt 2_000_000_000L Float.nan))
   with
  | Some s ->
    Alcotest.(check bool) "rate guarded against NaN" true (Float.is_finite s.Ts.s_rate);
    Alcotest.check feq "guarded rate is 0" 0.0 s.Ts.s_rate
  | None -> Alcotest.fail "gauge series missing");
  (* Infinite gauge jump: same guard. *)
  match
    find_series "test.timeseries.guard_g"
      (Ts.deltas_between (pt 1_000_000_000L 1.0) (pt 2_000_000_000L Float.infinity))
  with
  | Some s -> Alcotest.check feq "rate guarded against Inf" 0.0 s.Ts.s_rate
  | None -> Alcotest.fail "gauge series missing"

let test_counter_reset_clamp_renders () =
  (* A clamped reset must render as an idle row (delta 0, rate 0.0) —
     not as a negative delta. *)
  let pt ns v =
    {
      Ts.pt_ns = ns;
      pt_snap =
        { Metrics.snap_counters = [ ("test.timeseries.reset_render", v) ];
          snap_gauges = []; snap_histograms = [] };
    }
  in
  let series = Ts.deltas_between (pt 1_000_000_000L 100) (pt 2_000_000_000L 1) in
  let out = Ts.render series in
  if not (occurs_in out "test.timeseries.reset_render") then
    Alcotest.fail "clamped series missing from render";
  if occurs_in out "-99" then Alcotest.fail "negative delta rendered after a counter reset";
  match find_series "test.timeseries.reset_render" series with
  | Some s ->
    Alcotest.check feq "clamped delta" 0.0 s.Ts.s_delta;
    Alcotest.check feq "clamped rate" 0.0 s.Ts.s_rate
  | None -> Alcotest.fail "series missing"

let test_alert_state_gauge_roundtrip () =
  (* The alert-state exposition must agree with the engine's state both
     ways: parse every sample line back and compare with st_firing. *)
  let module Alert = Provkit_obs.Alert in
  Alert.reset ();
  Fun.protect ~finally:Alert.reset @@ fun () ->
  let rule id =
    {
      Alert.r_id = id;
      r_signal = Alert.Gauge_value "test.timeseries.alert_sig";
      r_condition = Alert.Above 1.0;
      r_for_ns = 0L;
      r_severity = Alert.Info;
      r_describe = "exposition round-trip";
    }
  in
  Alert.register (rule "alert.test.ts_quiet");
  Alert.register (rule "alert.test.ts_loud");
  (* Fire only the second rule by swapping its condition. *)
  Alert.register { (rule "alert.test.ts_loud") with Alert.r_condition = Alert.Below 1.0 };
  let pt ns =
    {
      Ts.pt_ns = ns;
      pt_snap =
        { Metrics.snap_counters = [];
          snap_gauges = [ ("test.timeseries.alert_sig", 0.5) ]; snap_histograms = [] };
    }
  in
  Alert.feed (pt 100L);
  Alert.feed (pt 200L);
  let text = Alert.prometheus_states () in
  let parsed =
    List.filter_map
      (fun line ->
        match String.index_opt line '{' with
        | Some _ when String.length line > 0 && line.[0] <> '#' -> (
          match String.split_on_char '"' line with
          | [ _; rule_id; rest ] when String.length rest > 1 ->
            (* [rest] is ["} <value>"]: drop the brace, keep the sample. *)
            Some (rule_id, String.trim (String.sub rest 1 (String.length rest - 1)))
          | _ -> None)
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  Alcotest.(check int) "one sample per rule" 2 (List.length parsed);
  List.iter
    (fun st ->
      let id = st.Alert.st_rule.Alert.r_id in
      match List.assoc_opt id parsed with
      | Some v ->
        Alcotest.(check string)
          (id ^ " state matches")
          (if st.Alert.st_firing then "1" else "0")
          v
      | None -> Alcotest.failf "rule %s missing from exposition" id)
    (Alert.states ());
  Alcotest.(check bool) "the loud rule is firing" true
    (List.exists
       (fun st -> st.Alert.st_rule.Alert.r_id = "alert.test.ts_loud" && st.Alert.st_firing)
       (Alert.states ()))

let suite =
  [
    Alcotest.test_case "deltas and rates, hand-computed" `Quick test_deltas_and_rates;
    Alcotest.test_case "counter reset clamps to zero" `Quick test_counter_reset_clamps;
    Alcotest.test_case "capacity eviction keeps newest" `Quick test_capacity_eviction;
    Alcotest.test_case "invalid capacity rejected" `Quick test_invalid_capacity;
    Alcotest.test_case "pulse interval records points" `Quick test_pulse_interval;
    Alcotest.test_case "pulse is silent when disabled" `Quick
      test_pulse_disabled_is_silent;
    Alcotest.test_case "prometheus exposition format" `Quick test_prometheus_exposition;
    Alcotest.test_case "render and last_deltas" `Quick test_render_has_all_series;
    Alcotest.test_case "non-finite gauges in exposition" `Quick
      test_prometheus_nonfinite_gauges;
    Alcotest.test_case "empty snapshot exposition" `Quick test_prometheus_empty_snapshot;
    Alcotest.test_case "rate guards: zero dt, NaN, Inf" `Quick test_rate_guards;
    Alcotest.test_case "counter reset renders as idle" `Quick
      test_counter_reset_clamp_renders;
    Alcotest.test_case "alert-state gauge round-trip" `Quick
      test_alert_state_gauge_roundtrip;
  ]
