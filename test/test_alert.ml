(* Alert-engine tests.  The engine's registry, transition log and
   previous-point cursor are process-global (shared with the CLI), so
   every test starts from [Alert.reset] and asserts on deltas of the
   global flight/metric counters, never absolutes.

   The headline properties are the hysteresis contract from the rule
   catalog's docs: a signal oscillating across the threshold faster
   than [r_for_ns] never fires; a sustained breach fires exactly once
   and, once sustainedly clear, resolves exactly once. *)

module Alert = Provkit_obs.Alert
module Ts = Provkit_obs.Timeseries
module Metrics = Provkit_obs.Metrics
module Flight = Provkit_obs.Flight

let sig_gauge = "test.alert.signal"

(* One synthetic point: a single gauge carrying the signal value. *)
let point ~ns v =
  {
    Ts.pt_ns = Int64.of_int ns;
    pt_snap =
      { Metrics.snap_counters = []; snap_gauges = [ (sig_gauge, v) ]; snap_histograms = [] };
  }

let counter_point ~ns v =
  {
    Ts.pt_ns = Int64.of_int ns;
    pt_snap =
      { Metrics.snap_counters = [ ("test.alert.ticks", v) ]; snap_gauges = [];
        snap_histograms = [] };
  }

let gauge_rule ?(id = "alert.test.gauge") ?(for_ns = 0L) ?(severity = Alert.Warning)
    ?(condition = Alert.Above 10.0) () =
  {
    Alert.r_id = id;
    r_signal = Alert.Gauge_value sig_gauge;
    r_condition = condition;
    r_for_ns = for_ns;
    r_severity = severity;
    r_describe = "test gauge rule";
  }

let with_engine f =
  Alert.reset ();
  Fun.protect ~finally:(fun () -> Alert.reset ()) f

(* Feed a value sequence at a fixed step; the first point only primes. *)
let feed_values ~step values =
  List.iteri (fun i v -> Alert.feed (point ~ns:((i + 1) * step) v)) values

let state id =
  match List.find_opt (fun st -> st.Alert.st_rule.Alert.r_id = id) (Alert.states ()) with
  | Some st -> st
  | None -> Alcotest.fail ("rule missing: " ^ id)

(* --- signal algebra -------------------------------------------------- *)

let test_signal_algebra () =
  let snap counters gauges hists =
    { Metrics.snap_counters = counters; snap_gauges = gauges; snap_histograms = hists }
  in
  let hs count p99 =
    { Metrics.hs_count = count; hs_sum = 0.0; hs_min = 0; hs_max = 0; hs_p50 = 0.0;
      hs_p95 = 0.0; hs_p99 = p99 }
  in
  let older = { Ts.pt_ns = 0L; pt_snap = snap [ ("c", 100) ] [ ("g", 1.0) ] [] } in
  let newer =
    {
      Ts.pt_ns = 2_000_000_000L;
      pt_snap = snap [ ("c", 160) ] [ ("g", 4.0) ] [ ("h", hs 10 250.0) ];
    }
  in
  let eval s = Alert.eval_signal ~older ~newer s in
  let check_some name expect s =
    match eval s with
    | Some v -> Alcotest.(check (float 1e-9)) name expect v
    | None -> Alcotest.fail (name ^ ": expected a value")
  in
  check_some "counter delta" 60.0 (Alert.Counter_delta "c");
  check_some "counter rate" 30.0 (Alert.Counter_rate "c");
  check_some "gauge" 4.0 (Alert.Gauge_value "g");
  check_some "p99" 250.0 (Alert.Hist_p99 "h");
  check_some "hist count rate" 5.0 (Alert.Hist_count_rate "h");
  check_some "ratio" 15.0 (Alert.Ratio (Alert.Counter_delta "c", Alert.Gauge_value "g"));
  check_some "sum" 64.0 (Alert.Sum (Alert.Counter_delta "c", Alert.Gauge_value "g"));
  (* Missing counters read as zero (delta clamps); a counter that went
     backwards also clamps. *)
  check_some "absent counter delta" 0.0 (Alert.Counter_delta "nope");
  let reset_newer = { newer with Ts.pt_snap = snap [ ("c", 5) ] [] [] } in
  (match Alert.eval_signal ~older ~newer:reset_newer (Alert.Counter_delta "c") with
  | Some v -> Alcotest.(check (float 1e-9)) "reset clamps" 0.0 v
  | None -> Alcotest.fail "reset clamp: expected a value");
  (* No data: empty histogram, zero-denominator ratio. *)
  (match eval (Alert.Hist_p99 "absent") with
  | None -> ()
  | Some _ -> Alcotest.fail "p99 of an absent histogram should be no-data");
  match eval (Alert.Ratio (Alert.Gauge_value "g", Alert.Counter_delta "nope")) with
  | None -> ()
  | Some _ -> Alcotest.fail "ratio with zero denominator should be no-data"

(* --- hysteresis: deterministic cases --------------------------------- *)

let test_oscillation_never_fires () =
  with_engine @@ fun () ->
  (* for_ns = 300: at step 100 a breach must survive 4 consecutive
     samples to fire.  Alternating 2-breach / 1-clear runs never get
     there. *)
  Alert.register (gauge_rule ~for_ns:300L ());
  feed_values ~step:100
    [ 20.0; 20.0; 5.0; 20.0; 20.0; 5.0; 20.0; 20.0; 5.0; 20.0; 20.0; 5.0 ];
  let st = state "alert.test.gauge" in
  Alcotest.(check int) "never fired" 0 st.Alert.st_fires;
  Alcotest.(check bool) "not firing" false st.Alert.st_firing;
  Alcotest.(check int) "no transitions" 0 (List.length (Alert.transitions ()))

let test_sustained_fires_once_resolves_once () =
  with_engine @@ fun () ->
  Alert.register (gauge_rule ~for_ns:300L ());
  (* 8 breach samples: fire exactly once (at the 4th), stay firing. *)
  feed_values ~step:100 [ 20.0; 20.0; 20.0; 20.0; 20.0; 20.0; 20.0; 20.0 ];
  let st = state "alert.test.gauge" in
  Alcotest.(check int) "fired once" 1 st.Alert.st_fires;
  Alcotest.(check bool) "firing" true st.Alert.st_firing;
  (* 8 clear samples continuing the clock: resolve exactly once. *)
  List.iteri (fun i v -> Alert.feed (point ~ns:((9 + i) * 100) v)) [ 5.0; 5.0; 5.0; 5.0; 5.0; 5.0; 5.0; 5.0 ];
  let st = state "alert.test.gauge" in
  Alcotest.(check int) "still one fire" 1 st.Alert.st_fires;
  Alcotest.(check int) "resolved once" 1 st.Alert.st_resolves;
  Alcotest.(check bool) "clear" false st.Alert.st_firing;
  match List.map (fun tr -> tr.Alert.tr_kind) (Alert.transitions ()) with
  | [ Alert.Fire; Alert.Resolve ] -> ()
  | _ -> Alcotest.fail "expected exactly [Fire; Resolve]"

let test_brief_dip_does_not_resolve () =
  with_engine @@ fun () ->
  Alert.register (gauge_rule ~for_ns:300L ());
  (* First point only primes; the breach window opens at ns=200 and the
     rule fires at ns=500. *)
  feed_values ~step:100 [ 20.0; 20.0; 20.0; 20.0; 20.0 ];
  Alcotest.(check bool) "firing" true (state "alert.test.gauge").Alert.st_firing;
  (* A 2-sample dip is shorter than for_ns: hysteresis holds the alert
     open, and the resumed breach must not fire a second time. *)
  List.iteri
    (fun i v -> Alert.feed (point ~ns:((6 + i) * 100) v))
    [ 5.0; 5.0; 20.0; 20.0; 20.0; 20.0 ];
  let st = state "alert.test.gauge" in
  Alcotest.(check bool) "still firing" true st.Alert.st_firing;
  Alcotest.(check int) "no second fire" 1 st.Alert.st_fires;
  Alcotest.(check int) "no resolve" 0 st.Alert.st_resolves

let test_absent_condition () =
  with_engine @@ fun () ->
  Alert.register
    {
      Alert.r_id = "alert.test.absent";
      r_signal = Alert.Counter_delta "test.alert.ticks";
      r_condition = Alert.Absent;
      r_for_ns = 0L;
      r_severity = Alert.Info;
      r_describe = "stall detector";
    };
  (* Counter moving: clear.  Counter flat: breach (immediately, for_=0). *)
  Alert.feed (counter_point ~ns:100 10);
  Alert.feed (counter_point ~ns:200 20);
  Alcotest.(check bool) "moving = clear" false (state "alert.test.absent").Alert.st_firing;
  Alert.feed (counter_point ~ns:300 20);
  Alcotest.(check bool) "stalled = firing" true (state "alert.test.absent").Alert.st_firing;
  Alert.feed (counter_point ~ns:400 30);
  Alcotest.(check bool) "moving again = clear" false
    (state "alert.test.absent").Alert.st_firing

(* --- hysteresis: seeded QCheck properties ---------------------------- *)

(* Run-length encoded oscillation: a starting polarity and a list of
   run lengths, polarity strictly alternating run to run (so no two
   generated runs can merge into one longer breach).  [k_steps] is the
   number of extra samples a breach must survive: for_ns = k * step, so
   a breach run needs k + 1 consecutive samples to fire. *)
let k_steps = 3
let step_ns = 100

let runs_gen ~max_run =
  QCheck.Gen.(pair bool (list_size (int_range 0 20) (int_range 1 max_run)))

let values_of_runs (start, lens) =
  let _, rev =
    List.fold_left
      (fun (breach, acc) len ->
        (not breach, List.init len (fun _ -> if breach then 20.0 else 5.0) :: acc))
      (start, []) lens
  in
  List.concat (List.rev rev)

let print_runs (start, lens) =
  Printf.sprintf "start=%c;%s"
    (if start then 'B' else 'c')
    (String.concat "," (List.map string_of_int lens))

let with_rule_fires values =
  Alert.reset ();
  Alert.register (gauge_rule ~for_ns:(Int64.of_int (k_steps * step_ns)) ());
  feed_values ~step:step_ns values;
  let st = state "alert.test.gauge" in
  let fires = st.Alert.st_fires and resolves = st.Alert.st_resolves in
  Alert.reset ();
  (fires, resolves)

let prop_oscillation_never_fires =
  QCheck.Test.make ~name:"oscillation faster than for_ never fires" ~count:200
    (QCheck.make ~print:print_runs (runs_gen ~max_run:k_steps))
    (fun runs ->
      (* Every breach run is at most k samples: too short to fire. *)
      let fires, _ = with_rule_fires (values_of_runs runs) in
      fires = 0)

let prop_sustained_fires_exactly_once =
  QCheck.Test.make ~name:"sustained breach fires once, sustained clear resolves once"
    ~count:200
    (QCheck.make ~print:print_runs (runs_gen ~max_run:k_steps))
    (fun prefix ->
      (* Any too-fast-to-fire oscillation prefix, then one long breach
         and one long clear.  Exactly one fire, exactly one resolve —
         even if the prefix happens to end mid-breach, that just extends
         the single sustained run. *)
      let tail = [ 20.0; 20.0; 20.0; 20.0; 20.0; 20.0; 5.0; 5.0; 5.0; 5.0; 5.0; 5.0 ] in
      let fires, resolves = with_rule_fires (values_of_runs prefix @ tail) in
      fires = 1 && resolves = 1)

(* --- transitions, log bounds, flight dedup --------------------------- *)

let test_transition_log_bounded () =
  with_engine @@ fun () ->
  Alert.register (gauge_rule ());
  (* for_ns = 0: every alternation is a transition. *)
  feed_values ~step:100 (List.concat (List.init 100 (fun _ -> [ 20.0; 5.0 ])));
  Alcotest.(check bool) "log bounded at 64" true (List.length (Alert.transitions ()) <= 64);
  Alcotest.(check bool) "total keeps counting" true (Alert.transitions_recorded () > 64);
  let seqs = List.map (fun tr -> tr.Alert.tr_seq) (Alert.transitions ()) in
  Alcotest.(check (list int)) "oldest-first, contiguous" (List.sort compare seqs) seqs

let test_fire_dedups_flight_incidents () =
  with_engine @@ fun () ->
  Flight.clear ();
  Alert.register (gauge_rule ~id:"alert.test.flappy" ());
  let recorded0 = Flight.recorded () in
  (* Prime below threshold, then 20 fire/resolve cycles: 20 flight
     occurrences, ONE ring slot. *)
  Alert.feed (point ~ns:10 5.0);
  feed_values ~step:100 (List.concat (List.init 20 (fun _ -> [ 20.0; 5.0 ])));
  let ours =
    List.filter (fun (i : Flight.incident) -> i.Flight.dedup = Some "alert.test.flappy")
      (Flight.incidents ())
  in
  (match ours with
  | [ i ] ->
    Alcotest.(check int) "19 repeats folded into the slot" 19 i.Flight.repeats;
    Alcotest.(check string) "reason" "alert.fired" i.Flight.reason
  | l -> Alcotest.failf "expected exactly 1 deduped incident, got %d" (List.length l));
  Alcotest.(check int) "every occurrence counted" 20 (Flight.recorded () - recorded0);
  (* The other 15 ring slots survive for other incidents. *)
  Flight.record "test.alert.other";
  Alcotest.(check bool) "ring keeps unrelated incidents" true
    (List.exists (fun (i : Flight.incident) -> i.Flight.reason = "test.alert.other")
       (Flight.incidents ()))

let test_defaults_registered () =
  with_engine @@ fun () ->
  List.iter Alert.register Alert.defaults;
  Alcotest.(check int) "six default rules" 6 (List.length (Alert.states ()))

let test_prometheus_states () =
  with_engine @@ fun () ->
  let text0 = Alert.prometheus_states () in
  Alcotest.(check string) "no rules, no exposition" "" text0;
  Alert.register (gauge_rule ~id:"alert.test.promgauge" ());
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1)) in
    go 0
  in
  let text = Alert.prometheus_states () in
  Alcotest.(check bool) "typed" true (contains text "# TYPE prov_alert_state gauge");
  Alcotest.(check bool) "state 0" true
    (contains text "prov_alert_state{rule=\"alert.test.promgauge\"} 0");
  feed_values ~step:100 [ 20.0; 20.0 ];
  Alcotest.(check bool) "state 1 after fire" true
    (contains (Alert.prometheus_states ())
       "prov_alert_state{rule=\"alert.test.promgauge\"} 1")

let test_replay_history_is_quiet () =
  with_engine @@ fun () ->
  Flight.clear ();
  Alert.register (gauge_rule ~id:"alert.test.replayed" ());
  let hook_calls = ref 0 in
  Alert.add_transition_hook (fun _ -> incr hook_calls);
  Fun.protect ~finally:Alert.clear_transition_hooks @@ fun () ->
  let recorded0 = Flight.recorded () in
  let fires0 = Metrics.counter_value Provkit_obs.Names.alert_fires in
  Alert.replay_history [ point ~ns:100 20.0; point ~ns:200 20.0; point ~ns:300 5.0 ];
  let st = state "alert.test.replayed" in
  Alcotest.(check int) "state replayed" 1 st.Alert.st_fires;
  Alcotest.(check int) "transitions logged" 2 (List.length (Alert.transitions ()));
  Alcotest.(check int) "no hooks during replay" 0 !hook_calls;
  Alcotest.(check int) "no flight incidents" 0 (Flight.recorded () - recorded0);
  Alcotest.(check int) "no metric ticks" fires0
    (Metrics.counter_value Provkit_obs.Names.alert_fires);
  (* Live feeding continues from the replayed cursor and is loud again. *)
  Alert.feed (point ~ns:400 20.0);
  Alert.feed (point ~ns:500 20.0);
  Alcotest.(check int) "live refire" 2 (state "alert.test.replayed").Alert.st_fires;
  Alcotest.(check int) "live hook ran" 1 !hook_calls

let test_observer_wiring () =
  with_engine @@ fun () ->
  let saved = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Ts.clear_observers ();
      Metrics.set_enabled saved)
  @@ fun () ->
  Ts.add_observer Alert.feed;
  Alert.register
    {
      (gauge_rule ~id:"alert.test.observed" ()) with
      Alert.r_signal = Alert.Counter_rate Provkit_obs.Names.timeseries_points;
      r_condition = Alert.Above (-1.0);
    };
  let ring = Ts.create ~capacity:4 () in
  ignore (Ts.record ~now_ns:1_000_000_000L ring);
  ignore (Ts.record ~now_ns:2_000_000_000L ring);
  (* Two recorded points = one evaluated pair; the always-true condition
     proves evaluation actually ran off the observer. *)
  Alcotest.(check bool) "observer drove evaluation" true
    (state "alert.test.observed").Alert.st_firing

let suite =
  [
    Alcotest.test_case "signal algebra over a point pair" `Quick test_signal_algebra;
    Alcotest.test_case "oscillation never fires (deterministic)" `Quick
      test_oscillation_never_fires;
    Alcotest.test_case "sustained breach fires once, resolves once" `Quick
      test_sustained_fires_once_resolves_once;
    Alcotest.test_case "brief dip does not resolve" `Quick test_brief_dip_does_not_resolve;
    Alcotest.test_case "absent-signal condition" `Quick test_absent_condition;
    QCheck_alcotest.to_alcotest prop_oscillation_never_fires;
    QCheck_alcotest.to_alcotest prop_sustained_fires_exactly_once;
    Alcotest.test_case "transition log bounded, total monotonic" `Quick
      test_transition_log_bounded;
    Alcotest.test_case "repeated fires dedup into one flight slot" `Quick
      test_fire_dedups_flight_incidents;
    Alcotest.test_case "default catalog ids all registered" `Quick test_defaults_registered;
    Alcotest.test_case "prometheus state gauges" `Quick test_prometheus_states;
    Alcotest.test_case "replay_history suppresses side effects" `Quick
      test_replay_history_is_quiet;
    Alcotest.test_case "timeseries observer drives evaluation" `Quick test_observer_wiring;
  ]
