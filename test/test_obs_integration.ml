(* Instrumentation against ground truth: the EXPLAIN surface must agree
   with [Query_exec.plan_for], and the WAL / capture counters must match
   independently-measurable facts about the workload that produced them.

   Metrics are process-global, so every assertion here is a delta
   (value-after minus value-before) — other suites running first cannot
   disturb them. *)

module M = Provkit_obs.Metrics
module Names = Provkit_obs.Names
module R = Relstore
module Q = Relstore.Query_exec
module PL = Core.Prov_log
module Seg = Core.Prov_log.Segmented
module Store = Core.Prov_store
module PE = Core.Prov_edge
module Prng = Provkit_util.Prng

let with_enabled f =
  let was = M.enabled () in
  M.set_enabled true;
  Fun.protect ~finally:(fun () -> M.set_enabled was) f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun entry -> rm_rf (Filename.concat path entry)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let path = Filename.temp_file "obs_test" ".d" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

(* --- EXPLAIN vs the planner -------------------------------------------- *)

let fixture_db () =
  let db = R.Database.create ~name:"explain_fixture" in
  let t =
    R.Database.create_table db
      (R.Schema.make ~name:"visits"
         [
           R.Column.make "url" R.Value.Ttext;
           R.Column.make "day" R.Value.Tint;
           R.Column.make "tab" R.Value.Tint;
         ])
  in
  R.Table.add_index t ~name:"by_url_day" ~columns:[ "url"; "day" ];
  R.Table.add_index t ~name:"by_day" ~columns:[ "day" ];
  for i = 1 to 60 do
    ignore
      (R.Table.insert_fields t
         [
           ("url", R.Value.Text (Printf.sprintf "http://site%d.example/" (i mod 5)));
           ("day", R.Value.Int (i mod 10));
           ("tab", R.Value.Int (i mod 3));
         ])
  done;
  db

let test_explain_matches_plan_for () =
  with_enabled @@ fun () ->
  let db = fixture_db () in
  let table = R.Database.table db "visits" in
  let queries =
    [
      (* (sql, expected plan) — one of each access-path kind *)
      ( "SELECT * FROM visits WHERE url = 'http://site2.example/' AND day = 7",
        Q.Index_eq "by_url_day" );
      ("SELECT * FROM visits WHERE day = 3", Q.Index_eq "by_day");
      ("SELECT * FROM visits WHERE tab = 1", Q.Full_scan);
      ("SELECT * FROM visits WHERE day BETWEEN 2 AND 5", Q.Index_range "by_day");
      ("SELECT * FROM visits WHERE day >= 6", Q.Index_range "by_day");
      ("SELECT COUNT(*) FROM visits WHERE day = 4", Q.Index_eq "by_day");
    ]
  in
  List.iter
    (fun (sql, expected) ->
      let ast = R.Sql.parse sql in
      let report = R.Sql.explain_query db sql in
      if report.R.Sql.plan <> expected then
        Alcotest.failf "%s: expected %s, explain said %s" sql
          (R.Sql.plan_to_string expected)
          (R.Sql.plan_to_string report.R.Sql.plan);
      (* the report's plan is the planner's, not a re-derivation *)
      if report.R.Sql.plan <> Q.plan_for table ast.R.Sql.where then
        Alcotest.failf "%s: explain disagrees with plan_for" sql;
      if report.R.Sql.stats.Q.plan <> report.R.Sql.plan then
        Alcotest.failf "%s: executor used a different plan than reported" sql;
      (* estimated rows = candidate rows the access path yields, which is
         exactly what the executor then scans *)
      Alcotest.(check int)
        (sql ^ ": estimate matches scan")
        report.R.Sql.estimated_rows report.R.Sql.stats.Q.rows_scanned;
      let naive =
        List.filter
          (fun (_, row) -> R.Predicate.eval ast.R.Sql.where (R.Table.schema table) row)
          (R.Table.rows table)
      in
      (* an aggregate collapses its matches into a single result row *)
      let expected_returned =
        match ast.R.Sql.projection with
        | `Aggregate _ -> 1
        | `All | `Columns _ -> List.length naive
      in
      Alcotest.(check int)
        (sql ^ ": rows returned match a naive filter")
        expected_returned report.R.Sql.stats.Q.rows_returned)
    queries

let test_query_counters_tick () =
  with_enabled @@ fun () ->
  let db = fixture_db () in
  let count name = M.value (M.counter name) in
  let queries0 = count Names.query_count in
  let eq0 = count Names.query_full_scan + count Names.query_index_eq in
  let range0 = count Names.query_index_range in
  let h = M.histogram Names.query_latency_ns in
  let hist0 = M.hist_count h in
  ignore (R.Sql.query db "SELECT * FROM visits WHERE day = 3");
  ignore (R.Sql.query db "SELECT * FROM visits WHERE tab = 1");
  ignore (R.Sql.query db "SELECT * FROM visits WHERE day BETWEEN 2 AND 5");
  Alcotest.(check int) "three queries counted" 3 (count Names.query_count - queries0);
  Alcotest.(check int) "eq + scan plans counted" 2
    (count Names.query_full_scan + count Names.query_index_eq - eq0);
  Alcotest.(check int) "range plan counted" 1 (count Names.query_index_range - range0);
  Alcotest.(check int) "each query left a latency sample" 3 (M.hist_count h - hist0)

(* --- WAL counters vs ground truth -------------------------------------- *)

let drive store rng rounds =
  let prev = ref None in
  for i = 1 to rounds do
    let url = Printf.sprintf "http://w%d.example/p%d" (Prng.int rng 7) (Prng.int rng 200) in
    let v =
      Store.add_visit store ~engine_visit:i ~url ~title:"page"
        ~transition:Browser.Transition.Link ~tab:(Prng.int rng 4) ~time:(1000 + i)
    in
    (match !prev with
    | Some p when Prng.int rng 3 > 0 ->
      Store.add_edge store ~src:p ~dst:v PE.Link_traversal ~time:(1000 + i)
    | _ -> ());
    prev := Some v;
    if Prng.int rng 4 = 0 then Store.close_visit store ~engine_visit:i ~time:(1001 + i)
  done

let test_wal_counters_ground_truth () =
  with_enabled @@ fun () ->
  with_temp_dir @@ fun dir ->
  let count name = M.value (M.counter name) in
  let appends0 = count Names.wal_appends in
  let fsyncs0 = count Names.wal_fsyncs in
  let rotations0 = count Names.wal_rotations in
  let bytes0 = count Names.wal_bytes_written in
  let recoveries0 = count Names.wal_recoveries in
  let rec_ops0 = count Names.wal_recovered_ops in
  let rec_segs0 = count Names.wal_recovered_segments in
  let truncated0 = count Names.wal_recoveries_truncated in
  let handle, syncs =
    Test_wal.with_sync_log (fun events ->
        let handle = Seg.open_ ~config:{ Seg.default_config with Seg.max_segment_bytes = 2048 } dir in
        let store = Store.create () in
        Seg.attach handle store;
        let rng = Test_seed.prng ~salt:81 in
        drive store rng 150;
        Seg.close handle;
        (handle, events ()))
  in
  let appended = Seg.appended handle in
  let live_segments = List.length (Seg.segments handle) in
  Alcotest.(check int) "append counter = ops the WAL accepted" appended
    (count Names.wal_appends - appends0);
  Alcotest.(check int) "one rotation per segment after the first"
    (live_segments - 1)
    (count Names.wal_rotations - rotations0);
  (* Commits coalesce while a sync runs, so the commit syncs number
     between one and one per append (the default config commits every
     append); each segment adds its header sync and two directory
     syncs, and its manifest one more. *)
  Alcotest.(check int) "fsync counter = fsync syscalls" (List.length syncs)
    (count Names.wal_fsyncs - fsyncs0);
  let segment_syncs =
    List.length
      (List.filter
         (function
           | Provkit_util.Faulty_io.File p -> Filename.check_suffix p ".log"
           | Provkit_util.Faulty_io.Dir _ -> false)
         syncs)
  in
  let commit_syncs = segment_syncs - live_segments in
  Alcotest.(check bool) "at most one fsync per commit" true
    (commit_syncs >= 1 && commit_syncs <= appended);
  Alcotest.(check int) "a header, a manifest and two directory syncs per segment"
    (4 * live_segments)
    (List.length syncs - commit_syncs);
  let on_disk =
    List.fold_left
      (fun acc entry ->
        let p = Filename.concat dir entry in
        if Sys.is_directory p then acc
        else acc + (let ic = open_in_bin p in
                    let n = in_channel_length ic in
                    close_in ic;
                    n))
      0
      (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check bool) "bytes counter accounts for the files on disk" true
    (count Names.wal_bytes_written - bytes0 >= on_disk - 512
    && count Names.wal_bytes_written - bytes0 > 0);
  let r = Seg.recover ~dir () in
  Alcotest.(check int) "one recovery" 1 (count Names.wal_recoveries - recoveries0);
  Alcotest.(check int) "recovered-op counter = recover's own report"
    r.Seg.ops_applied
    (count Names.wal_recovered_ops - rec_ops0);
  Alcotest.(check int) "recovered ops = every appended op" appended r.Seg.ops_applied;
  Alcotest.(check int) "recovered-segment counter = recover's own report"
    r.Seg.segments_read
    (count Names.wal_recovered_segments - rec_segs0);
  Alcotest.(check int) "clean shutdown: no truncation recorded" 0
    (count Names.wal_recoveries_truncated - truncated0)

let test_wal_truncation_counter () =
  with_enabled @@ fun () ->
  with_temp_dir @@ fun dir ->
  let truncated0 = M.value (M.counter Names.wal_recoveries_truncated) in
  let handle = Seg.open_ ~config:{ Seg.default_config with Seg.max_segment_bytes = 1_000_000 } dir in
  let store = Store.create () in
  Seg.attach handle store;
  let rng = Test_seed.prng ~salt:82 in
  drive store rng 40;
  Provkit_util.Faulty_io.arm (Seg.active_sink handle)
    [ Provkit_util.Faulty_io.Torn_final_write 3 ];
  Seg.close handle;
  let r = Seg.recover ~dir () in
  Alcotest.(check bool) "the tear truncated recovery" true r.Seg.truncated;
  Alcotest.(check int) "truncated recovery counted" 1
    (M.value (M.counter Names.wal_recoveries_truncated) - truncated0)

(* --- capture counters --------------------------------------------------- *)

let test_capture_counters () =
  with_enabled @@ fun () ->
  let count name = M.value (M.counter name) in
  let total0 = count Names.capture_events in
  let visits0 = count Names.capture_visit in
  let closes0 = count Names.capture_close in
  let searches0 = count Names.capture_search in
  let capture, feed = Core.Capture.observer () in
  let events =
    List.concat_map
      (fun i ->
        [
          Browser.Event.Visit
            {
              Browser.Event.visit_id = i;
              time = 100 + i;
              tab = 0;
              page = Some i;
              url = Webmodel.Url.of_string (Printf.sprintf "http://s%d.example/" i);
              title = "page";
              transition = Browser.Transition.Link;
              referrer = None;
              via_bookmark = None;
            };
          Browser.Event.Close { time = 200 + i; tab = 0; visit_id = i };
        ])
      (List.init 25 (fun i -> i + 1))
    @ [
        Browser.Event.Search
          { time = 999; search_id = 1; query = "q"; serp_visit = 1 };
      ]
  in
  List.iter feed events;
  ignore (Core.Capture.store capture);
  Alcotest.(check int) "every event counted" (List.length events)
    (count Names.capture_events - total0);
  Alcotest.(check int) "visits counted by kind" 25 (count Names.capture_visit - visits0);
  Alcotest.(check int) "closes counted by kind" 25 (count Names.capture_close - closes0);
  Alcotest.(check int) "searches counted by kind" 1
    (count Names.capture_search - searches0)

let suite =
  [
    Alcotest.test_case "explain matches plan_for" `Quick test_explain_matches_plan_for;
    Alcotest.test_case "query counters tick" `Quick test_query_counters_tick;
    Alcotest.test_case "WAL counters vs ground truth" `Quick test_wal_counters_ground_truth;
    Alcotest.test_case "WAL truncation counter" `Quick test_wal_truncation_counter;
    Alcotest.test_case "capture counters by kind" `Quick test_capture_counters;
  ]
