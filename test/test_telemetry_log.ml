(* Durable telemetry journal: encode/replay round trips, torn-tail
   recovery (any byte-level truncation yields a clean prefix, exactly
   one deduplicated flight incident per damaged file), and the wiring
   into the timeseries observer / alert transition hook. *)

module TL = Provkit_obs.Telemetry_log
module Ts = Provkit_obs.Timeseries
module Alert = Provkit_obs.Alert
module Metrics = Provkit_obs.Metrics
module Flight = Provkit_obs.Flight

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () -> output_string oc s

let sample_point i =
  {
    Ts.pt_ns = Int64.of_int (1_000_000 * (i + 1));
    pt_snap =
      {
        Metrics.snap_counters = [ ("test.journal.events", 100 * i); ("test.journal.ops", i) ];
        snap_gauges = [ ("test.journal.level", 0.5 +. float_of_int i); ("test.journal.inf", infinity) ];
        snap_histograms =
          [
            ( "test.journal.lat",
              {
                Metrics.hs_count = 10 + i;
                hs_sum = 12345.5;
                hs_min = 17;
                hs_max = 9_000_000;
                hs_p50 = 100.0;
                hs_p95 = 5_000.0;
                hs_p99 = 90_000.0 +. float_of_int i;
              } );
          ];
      };
  }

let sample_transition i =
  {
    Alert.tr_seq = i + 1;
    tr_rule = "alert.test.journal";
    tr_kind = (if i mod 2 = 0 then Alert.Fire else Alert.Resolve);
    tr_ns = Int64.of_int (2_000_000 * (i + 1));
    tr_value = 3.25 +. float_of_int i;
    tr_severity = Alert.Warning;
  }

(* Write a journal of [n_points] points and [n_trs] transitions and
   return its path (inside [dir]). *)
let write_journal dir ?(n_points = 4) ?(n_trs = 3) () =
  let path = Filename.concat dir "telemetry.ptj" in
  let t = TL.open_ ~path in
  for i = 0 to n_points - 1 do
    TL.append_point t (sample_point i)
  done;
  for i = 0 to n_trs - 1 do
    TL.append_transition t (sample_transition i)
  done;
  TL.close t;
  path

let rec is_prefix prefix l =
  match (prefix, l) with
  | [], _ -> true
  | x :: ps, y :: ys -> x = y && is_prefix ps ys
  | _ :: _, [] -> false

let test_roundtrip () =
  Test_wal.with_temp_dir @@ fun dir ->
  let path = write_journal dir () in
  let rp = TL.replay ~path in
  Alcotest.(check bool) "not truncated" false rp.TL.rp_truncated;
  Alcotest.(check int) "all frames decoded" 7 rp.TL.rp_records;
  Alcotest.(check int) "clean prefix is the whole file" (String.length (read_file path))
    rp.TL.rp_clean_bytes;
  Alcotest.(check bool) "points round-trip" true
    (rp.TL.rp_points = List.init 4 sample_point);
  Alcotest.(check bool) "transitions round-trip" true
    (rp.TL.rp_transitions = List.init 3 sample_transition);
  (* Reopening appends after the existing clean frames. *)
  let t = TL.open_ ~path in
  TL.append_point t (sample_point 9);
  TL.close t;
  let rp = TL.replay ~path in
  Alcotest.(check int) "appended frame visible" 8 rp.TL.rp_records;
  Alcotest.(check bool) "appended point last" true
    (List.nth rp.TL.rp_points 4 = sample_point 9)

let test_missing_file_reads_empty () =
  Test_wal.with_temp_dir @@ fun dir ->
  let rp = TL.replay ~path:(Filename.concat dir "nope.ptj") in
  Alcotest.(check int) "no records" 0 rp.TL.rp_records;
  Alcotest.(check bool) "not truncated" false rp.TL.rp_truncated

let prop_any_truncation_recovers_prefix =
  QCheck.Test.make ~name:"any journal truncation yields a clean prefix" ~count:80
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
    (fun cut_seed ->
      Test_wal.with_temp_dir @@ fun dir ->
      let path = write_journal dir () in
      let raw = read_file path in
      let full = TL.replay ~path in
      let cut = cut_seed mod (String.length raw + 1) in
      let torn = Filename.concat dir "torn.ptj" in
      write_file torn (String.sub raw 0 cut);
      let rp = TL.replay ~path:torn in
      (* The clean prefix never exceeds the cut, the recovered records
         are a prefix of the full journal's, and the torn flag is set
         exactly when bytes beyond the clean prefix were dropped. *)
      rp.TL.rp_clean_bytes <= cut
      && rp.TL.rp_truncated = (cut > rp.TL.rp_clean_bytes)
      && is_prefix rp.TL.rp_points full.TL.rp_points
      && is_prefix rp.TL.rp_transitions full.TL.rp_transitions
      && rp.TL.rp_records
         = List.length rp.TL.rp_points + List.length rp.TL.rp_transitions)

let test_torn_tail_flight_dedup () =
  Test_wal.with_temp_dir @@ fun dir ->
  Flight.clear ();
  let path = write_journal dir () in
  let raw = read_file path in
  write_file path (String.sub raw 0 (String.length raw - 3));
  let recorded0 = Flight.recorded () in
  let truncations0 =
    Metrics.counter_value Provkit_obs.Names.telemetry_journal_truncations
  in
  let rp1 = TL.replay ~path in
  Alcotest.(check bool) "tail detected" true rp1.TL.rp_truncated;
  (* Replaying the same damaged file again must not consume another
     flight ring slot — same dedup key (the path), repeats counted. *)
  let rp2 = TL.replay ~path in
  Alcotest.(check bool) "still torn" true rp2.TL.rp_truncated;
  let key = "telemetry.journal.truncated:" ^ path in
  (match
     List.filter (fun (i : Flight.incident) -> i.Flight.dedup = Some key)
       (Flight.incidents ())
   with
  | [ i ] -> Alcotest.(check int) "second replay folded in" 1 i.Flight.repeats
  | l -> Alcotest.failf "expected 1 deduped incident, got %d" (List.length l));
  Alcotest.(check int) "both occurrences counted" 2 (Flight.recorded () - recorded0);
  Alcotest.(check int) "truncation metric ticked twice" 2
    (Metrics.counter_value Provkit_obs.Names.telemetry_journal_truncations - truncations0)

let test_open_recovers_then_appends () =
  Test_wal.with_temp_dir @@ fun dir ->
  let path = write_journal dir () in
  let raw = read_file path in
  write_file path (String.sub raw 0 (String.length raw - 3));
  let before = TL.replay ~path in
  (* open_ cuts the torn tail: the file on disk is the clean prefix
     again, and appends land after it. *)
  let t = TL.open_ ~path in
  Alcotest.(check int) "tail cut on open" before.TL.rp_clean_bytes
    (String.length (read_file path));
  TL.append_point t (sample_point 7);
  TL.close t;
  let rp = TL.replay ~path in
  Alcotest.(check bool) "clean after recovery" false rp.TL.rp_truncated;
  Alcotest.(check int) "prefix plus the new frame" (before.TL.rp_records + 1)
    rp.TL.rp_records;
  Alcotest.(check bool) "recovered points kept" true
    (is_prefix before.TL.rp_points rp.TL.rp_points)

let test_replay_into_uses_push () =
  Test_wal.with_temp_dir @@ fun dir ->
  let path = write_journal dir ~n_points:5 ~n_trs:0 () in
  let notified = ref 0 in
  Ts.add_observer (fun _ -> incr notified);
  Fun.protect ~finally:Ts.clear_observers @@ fun () ->
  let ring = Ts.create ~capacity:3 () in
  let rp = TL.replay_into ring ~path in
  Alcotest.(check int) "five points decoded" 5 (List.length rp.TL.rp_points);
  Alcotest.(check int) "ring keeps the newest up to capacity" 3 (List.length (Ts.points ring));
  Alcotest.(check bool) "newest three in order" true
    (Ts.points ring = [ sample_point 2; sample_point 3; sample_point 4 ]);
  Alcotest.(check int) "observers never re-triggered" 0 !notified

let test_attach_wires_stream_and_transitions () =
  Test_wal.with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "live.ptj" in
  let saved = Metrics.enabled () in
  Metrics.set_enabled true;
  Alert.reset ();
  Fun.protect
    ~finally:(fun () ->
      Ts.clear_observers ();
      Alert.clear_transition_hooks ();
      Alert.reset ();
      Metrics.set_enabled saved)
  @@ fun () ->
  let t = TL.open_ ~path in
  TL.attach t;
  Alert.register
    {
      Alert.r_id = "alert.test.journal";
      r_signal = Alert.Gauge_value "test.journal.live";
      r_condition = Alert.Above 1.0;
      r_for_ns = 0L;
      r_severity = Alert.Info;
      r_describe = "journal wiring";
    };
  let ring = Ts.create ~capacity:8 () in
  ignore (Ts.record ~now_ns:1_000L ring);
  ignore (Ts.record ~now_ns:2_000L ring);
  (* Drive one live fire through the engine's own feed. *)
  let pt v ns =
    {
      Ts.pt_ns = ns;
      pt_snap =
        { Metrics.snap_counters = []; snap_gauges = [ ("test.journal.live", v) ];
          snap_histograms = [] };
    }
  in
  Alert.feed (pt 0.0 3_000L);
  Alert.feed (pt 9.0 4_000L);
  TL.close t;
  let rp = TL.replay ~path in
  Alcotest.(check int) "both recorded points journaled" 2 (List.length rp.TL.rp_points);
  (match rp.TL.rp_transitions with
  | [ tr ] ->
    Alcotest.(check string) "fire journaled" "alert.test.journal" tr.Alert.tr_rule;
    Alcotest.(check bool) "kind fire" true (tr.Alert.tr_kind = Alert.Fire)
  | l -> Alcotest.failf "expected 1 journaled transition, got %d" (List.length l));
  (* And the journaled history replays into the engine quietly. *)
  Alert.reset ();
  Alert.register
    {
      Alert.r_id = "alert.test.journal";
      r_signal = Alert.Gauge_value "test.journal.live";
      r_condition = Alert.Above 1.0;
      r_for_ns = 0L;
      r_severity = Alert.Info;
      r_describe = "journal wiring";
    };
  Alert.replay_history rp.TL.rp_points;
  Alcotest.(check int) "history primed the engine" 2
    (match
       List.find_opt
         (fun st -> st.Alert.st_rule.Alert.r_id = "alert.test.journal")
         (Alert.states ())
     with
    | Some st -> if Int64.equal st.Alert.st_last_ns 0L then 0 else 2
    | None -> 0)

(* A WAL manifest handed to [provctl top --journal] by mistake must
   survive: only a torn create (a proper prefix of the magic) is cut. *)
let test_open_refuses_foreign_file () =
  Test_wal.with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "MANIFEST" in
  let foreign = "PROVMAN1\x1b\x8e\x02\x7f\x10\x00\x00\x01\x12segment-000000.log" in
  write_file path foreign;
  (match TL.open_ ~path with
  | t ->
    TL.close t;
    Alcotest.fail "open_ accepted a file that is not a journal"
  | exception Provkit_util.Varint.Corrupt _ -> ());
  Alcotest.(check string) "foreign file untouched" foreign (read_file path);
  write_file path "PTJ";
  TL.close (TL.open_ ~path);
  Alcotest.(check string) "torn header rewritten as the magic" "PTJ1\n" (read_file path)

let suite =
  [
    Alcotest.test_case "round trip through a file" `Quick test_roundtrip;
    Alcotest.test_case "open refuses a file that is not a journal" `Quick
      test_open_refuses_foreign_file;
    Alcotest.test_case "missing file reads empty" `Quick test_missing_file_reads_empty;
    QCheck_alcotest.to_alcotest prop_any_truncation_recovers_prefix;
    Alcotest.test_case "torn tail dedups to one flight slot" `Quick
      test_torn_tail_flight_dedup;
    Alcotest.test_case "open recovers the tail then appends" `Quick
      test_open_recovers_then_appends;
    Alcotest.test_case "replay_into pushes without re-notifying" `Quick
      test_replay_into_uses_push;
    Alcotest.test_case "attach journals points and transitions" `Quick
      test_attach_wires_stream_and_transitions;
  ]
