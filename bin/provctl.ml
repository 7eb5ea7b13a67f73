(* provctl: command-line front end for the browser-provenance library.

   Subcommands:
     generate     simulate browsing; save provenance/places DBs + event log
     replay       rebuild a provenance store from a recorded event stream
     stats        metrics snapshot of an instrumented ingest+query run
                  (or, with --db, node/edge statistics of a saved DB)
     search       contextual history search over a saved DB
     time-search  "X associated with Y" over a saved DB
     lineage      first recognizable ancestor of a downloaded file
     suggest      provenance-aware location-bar suggestions
     sessions     gap-based session segmentation
     tree         the Ayers-Stasko navigation forest
     sql          ad-hoc SQL over any saved database
     wal          segmented write-ahead journal + crash/corruption injection
     matview      incremental materialized views: status, values, refresh
     serve        multi-domain daemon: ingest + snapshot reads + background jobs
     loadgen      deterministic load driver for the daemon ingest path
     experiments  regenerate every paper experiment table *)

open Cmdliner

let days_arg =
  Arg.(value & opt int 79 & info [ "days" ] ~docv:"DAYS" ~doc:"Simulated days of browsing.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")

let db_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "db" ] ~docv:"FILE" ~doc:"Path to a saved provenance database.")

let limit_arg =
  Arg.(value & opt int 10 & info [ "limit" ] ~docv:"N" ~doc:"Maximum results.")

let budget_arg =
  Arg.(
    value & opt (some float) None
    & info [ "budget-ms" ] ~docv:"MS" ~doc:"Bound the query to this many milliseconds.")

let budget_of = function
  | None -> Core.Query_budget.unlimited
  | Some ms -> Core.Query_budget.deadline ms

let load_store path =
  let db = Relstore.Database.load ~path in
  Core.Prov_schema.of_database db

(* --- generate ------------------------------------------------------- *)

let generate days seed out places_out events_out =
  let ds =
    Harness.Dataset.build
      ~user_config:{ Browser.User_model.default_config with Browser.User_model.days }
      ~seed ()
  in
  let store = Harness.Dataset.store ds in
  Printf.printf "simulated %d days (seed %d): %d nodes, %d edges\n" days seed
    (Core.Prov_store.node_count store)
    (Core.Prov_store.edge_count store);
  let prov_db = Core.Prov_schema.to_database store in
  Relstore.Database.save prov_db ~path:out;
  Printf.printf "provenance db -> %s (%s)\n" out
    (Harness.Report.fmt_bytes (Relstore.Database.total_size prov_db));
  (match places_out with
  | None -> ()
  | Some path ->
    let places_db = Browser.Places_db.database (Harness.Dataset.places ds) in
    Relstore.Database.save places_db ~path;
    Printf.printf "places db -> %s (%s)\n" path
      (Harness.Report.fmt_bytes (Relstore.Database.total_size places_db)));
  match events_out with
  | None -> ()
  | Some path ->
    let events = Browser.Engine.event_log ds.Harness.Dataset.engine in
    Browser.Event_codec.save ~path events;
    Printf.printf "event log -> %s (%d events)\n" path (List.length events)

let generate_cmd =
  let out =
    Arg.(
      value & opt string "prov.db"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Provenance database output path.")
  in
  let places_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "places-out" ] ~docv:"FILE" ~doc:"Also save the Places baseline here.")
  in
  let events_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "events-out" ] ~docv:"FILE" ~doc:"Also save the raw browser event stream.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Simulate browsing and save the provenance store")
    Term.(const generate $ days_arg $ seed_arg $ out $ places_out $ events_out)

(* --- replay ----------------------------------------------------------- *)

let replay events_path out =
  let events = Browser.Event_codec.load ~path:events_path in
  let capture, feed = Core.Capture.observer () in
  Browser.Event_codec.replay events [ feed ];
  let store = Core.Capture.store capture in
  Printf.printf "replayed %d events: %d nodes, %d edges\n" (List.length events)
    (Core.Prov_store.node_count store)
    (Core.Prov_store.edge_count store);
  let db = Core.Prov_schema.to_database store in
  Relstore.Database.save db ~path:out;
  Printf.printf "provenance db -> %s (%s)\n" out
    (Harness.Report.fmt_bytes (Relstore.Database.total_size db))

let events_path_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"EVENTS" ~doc:"An event stream saved by generate --events-out.")

let replay_out_arg =
  Arg.(
    value & opt string "replayed.db"
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Provenance database output path.")

let replay_cmd =
  Cmd.v
    (Cmd.info "replay" ~doc:"Rebuild a provenance store from a recorded event stream")
    Term.(const replay $ events_path_arg $ replay_out_arg)

(* --- stats ---------------------------------------------------------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Metrics live in the process that did the work, so the default stats
   mode runs a self-contained instrumented workload: simulate browsing,
   ingest the event stream through the capture observer backed by a
   segmented WAL (with a compaction and a recovery), then exercise every
   query plan kind — and report the registry's snapshot of all of it. *)
let workload_snapshot ?(group_commit = 1) ?(cache_capacity = 512) days seed =
  Provkit_obs.Metrics.set_enabled true;
  Provkit_obs.Flight.set_context
    [ ("seed", string_of_int seed); ("days", string_of_int days) ];
  Relstore.Query_exec.set_cache_capacity cache_capacity;
  Relstore.Query_exec.clear_cache ();
  let dir = Filename.temp_file "provctl-stats" ".wal" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Provkit_obs.Trace.with_span "workload" ~attrs:[ ("seed", string_of_int seed) ]
  @@ fun () ->
  let ds =
    Provkit_obs.Trace.with_span "workload.simulate" (fun () ->
        Harness.Dataset.build
          ~user_config:{ Browser.User_model.default_config with Browser.User_model.days }
          ~seed ())
  in
  let events = Browser.Engine.event_log ds.Harness.Dataset.engine in
  let store =
    Provkit_obs.Trace.with_span "workload.ingest" (fun () ->
        let handle =
          Core.Prov_log.Segmented.open_
            ~config:
              {
                Core.Prov_log.Segmented.default_config with
                Core.Prov_log.Segmented.max_segment_bytes = 16384;
                Core.Prov_log.Segmented.group_commit_ops = max 1 group_commit;
              }
            dir
        in
        let capture, feed = Core.Capture.observer () in
        let store = Core.Capture.store capture in
        Core.Prov_log.Segmented.attach handle store;
        List.iter feed events;
        Core.Prov_log.Segmented.compact handle store;
        Core.Prov_log.Segmented.close handle;
        ignore (Core.Prov_log.Segmented.recover ~dir ());
        store)
  in
  Provkit_obs.Trace.with_span "workload.query" (fun () ->
      let db = Core.Prov_schema.to_database store in
      let nodes = Relstore.Database.table db "prov_node" in
      let schema = Relstore.Table.schema nodes in
      let urls =
        Relstore.Table.fold nodes ~init:[] ~f:(fun acc _ row ->
            if List.length acc >= 8 then acc
            else
              match Relstore.Row.text_opt schema row "url" with
              | Some u when (not (List.mem u acc)) && not (String.contains u '\'') ->
                u :: acc
              | _ -> acc)
      in
      let q s = ignore (Relstore.Sql.query db s) in
      q "SELECT COUNT(*) FROM prov_node";
      q "SELECT kind, COUNT(*) FROM prov_node GROUP BY kind";
      q "SELECT * FROM prov_node WHERE kind = 1 LIMIT 20";
      q "SELECT * FROM prov_edge WHERE src BETWEEN 1 AND 64";
      List.iter
        (fun u -> q (Printf.sprintf "SELECT * FROM prov_node WHERE url = '%s'" u))
        urls;
      (* Awesomebar-style repetition: the same lookups re-run keystroke
         after keystroke.  Round one is cold, later rounds are served by
         the epoch-validated result cache — the prov.query.cache.*
         counters in the snapshot are this loop's ground truth. *)
      let kind_eq = Relstore.Predicate.Eq ("kind", Relstore.Value.Int 1) in
      for _ = 1 to 3 do
        ignore (Relstore.Query_exec.select ~where:kind_eq nodes);
        ignore (Relstore.Query_exec.count nodes);
        ignore (Relstore.Query_exec.group_count ~by:"kind" nodes)
      done);
  Provkit_obs.Metrics.snapshot ()

let stats db json prom trace_out days seed group_commit cache_capacity =
  (match db with
  | Some path ->
    let store = load_store path in
    Format.printf "%a" Core.Prov_store.pp_stats store;
    Printf.printf "causal graph acyclic: %b\n" (Core.Versioning.is_acyclic store)
  | None ->
    (* The exposition includes one prov_alert_state gauge per default
       rule, so install the catalog before the workload's pulse points
       start flowing. *)
    if prom then Provkit_obs.Alert.install_defaults ();
    let snap = workload_snapshot ~group_commit ~cache_capacity days seed in
    if prom then begin
      print_string (Provkit_obs.Timeseries.prometheus snap);
      print_string (Provkit_obs.Alert.prometheus_states ())
    end
    else if json then print_endline (Provkit_obs.Metrics.to_json snap)
    else begin
      print_string (Provkit_obs.Metrics.render snap);
      Printf.printf "\nheadline: %s\n" (Provkit_obs.Metrics.headline snap)
    end);
  match trace_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Provkit_obs.Trace.dump_jsonl oc;
    close_out oc;
    Printf.eprintf "trace -> %s\n" path

let db_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "db" ] ~docv:"FILE"
        ~doc:
          "Report node/edge statistics of this saved database instead of running the \
           instrumented workload.")

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable metrics snapshot.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE" ~doc:"Dump recorded spans here, one JSON per line.")

let group_commit_arg =
  Arg.(
    value & opt int 1
    & info [ "group-commit" ] ~docv:"N"
        ~doc:"Commit the WAL once N appends are pending (1 = a commit, and at most one fsync, per append).")

let cache_capacity_arg =
  Arg.(
    value & opt int 512
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"Query result cache capacity in entries (0 caches nothing).")

let prom_flag =
  Arg.(
    value & flag
    & info [ "prom" ]
        ~doc:"Emit the snapshot in Prometheus text exposition format instead.")

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Metrics snapshot of an instrumented ingest+query run (with --db: statistics of \
          a saved provenance database)")
    Term.(
      const stats $ db_opt_arg $ json_flag $ prom_flag $ trace_out_arg $ days_arg
      $ seed_arg $ group_commit_arg $ cache_capacity_arg)

(* --- analyze: the statistics catalog --------------------------------- *)

(* Simulate + ingest only — no WAL, no query mix — for the commands
   that need a populated relational database rather than a metrics
   story. *)
let build_database days seed =
  let ds =
    Harness.Dataset.build
      ~user_config:{ Browser.User_model.default_config with Browser.User_model.days }
      ~seed ()
  in
  let events = Browser.Engine.event_log ds.Harness.Dataset.engine in
  let capture, feed = Core.Capture.observer () in
  List.iter feed events;
  Core.Prov_schema.to_database (Core.Capture.store capture)

let analyze db days seed sample buckets json =
  Provkit_obs.Metrics.set_enabled true;
  let database =
    match db with
    | Some path -> Core.Prov_schema.to_database (load_store path)
    | None -> build_database days seed
  in
  let all = Relstore.Stats.analyze_database ?sample ~buckets database in
  List.iter
    (fun ts ->
      if json then print_endline (Relstore.Stats.to_json ts)
      else begin
        print_string (Relstore.Stats.render ts);
        print_newline ()
      end)
    all

let sample_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sample" ] ~docv:"N"
        ~doc:"Examine at most N rows per table (deterministic sample; default: all).")

let buckets_arg =
  Arg.(
    value & opt int 32
    & info [ "buckets" ] ~docv:"B" ~doc:"Equi-depth histogram buckets per indexed column.")

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Collect per-table/per-column statistics (row counts, null fractions, min/max, \
          HyperLogLog distinct counts, equi-depth histograms) into the planner's catalog \
          and print them")
    Term.(const analyze $ db_opt_arg $ days_arg $ seed_arg $ sample_arg $ buckets_arg
          $ json_flag)

(* --- slowlog --------------------------------------------------------- *)

let slowlog load threshold_ns days seed json out =
  (match load with
  | Some path ->
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let content = really_input_string ic len in
    close_in ic;
    let entries = Relstore.Slowlog.load_jsonl content in
    if json then
      List.iter (fun e -> print_endline (Relstore.Slowlog.to_json e)) entries
    else print_string (Relstore.Slowlog.render entries)
  | None ->
    (match Relstore.Slowlog.set_threshold_ns threshold_ns with
    | () -> ()
    | exception Invalid_argument msg ->
      Printf.eprintf "provctl slowlog: %s\n" msg;
      exit 2);
    ignore (workload_snapshot days seed);
    let entries = Relstore.Slowlog.entries () in
    if json then
      List.iter (fun e -> print_endline (Relstore.Slowlog.to_json e)) entries
    else print_string (Relstore.Slowlog.render entries));
  match out with
  | None -> ()
  | Some path ->
    let buf = Buffer.create 1024 in
    Relstore.Slowlog.dump_jsonl buf;
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.eprintf "slowlog -> %s\n" path

let slowlog_load_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "load" ] ~docv:"FILE"
        ~doc:"Render a previously dumped JSONL slow-query log instead of running the \
              workload.")

let slowlog_threshold_arg =
  let default =
    (* PROV_SLOWLOG_NS (already applied at Slowlog load when valid)
       also becomes the flag default, so env < flag in precedence. *)
    match Sys.getenv_opt "PROV_SLOWLOG_NS" with
    | Some s -> (
      match Relstore.Slowlog.threshold_of_env_string s with Some n -> n | None -> 100_000)
    | None -> 100_000
  in
  Arg.(
    value & opt int default
    & info
        [ "threshold-ns"; "threshold" ]
        ~docv:"NS"
        ~doc:
          "Slow-query threshold in nanoseconds (0 logs every query; at most one hour).  \
           Defaults to $(b,PROV_SLOWLOG_NS) when that is set to a valid value.")

let slowlog_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Also dump the log as JSONL here.")

let slowlog_cmd =
  Cmd.v
    (Cmd.info "slowlog"
       ~doc:
         "Run the instrumented workload with a slow-query threshold and print the \
          deduplicated slow-query log (worst first)")
    Term.(
      const slowlog $ slowlog_load_arg $ slowlog_threshold_arg $ days_arg $ seed_arg
      $ json_flag $ slowlog_out_arg)

(* --- top: live telemetry --------------------------------------------- *)

(* A one-shot process has no daemon to scrape, so [top] drives its own
   load: the simulated event stream is ingested in chunks, each chunk
   records a time-series point, and every refresh prints the
   delta/rate table between the two newest points. *)
let top days seed refreshes no_clear since journal =
  Provkit_obs.Metrics.set_enabled true;
  let ring = Provkit_obs.Timeseries.default in
  (* --since preloads the ring with a previous run's journaled points,
     so the first refresh already has history to diff against. *)
  (match since with
  | None -> ()
  | Some path ->
    let rp = Provkit_obs.Telemetry_log.replay_into ring ~path in
    Printf.eprintf "top: replayed %d point(s) from %s%s\n"
      (List.length rp.Provkit_obs.Telemetry_log.rp_points)
      path
      (if rp.Provkit_obs.Telemetry_log.rp_truncated then " (torn tail ignored)" else ""));
  let tj =
    match journal with
    | None -> None
    | Some path ->
      let t = Provkit_obs.Telemetry_log.open_ ~path in
      Provkit_obs.Telemetry_log.attach t;
      Some t
  in
  let ds =
    Harness.Dataset.build
      ~user_config:{ Browser.User_model.default_config with Browser.User_model.days }
      ~seed ()
  in
  let events = Browser.Engine.event_log ds.Harness.Dataset.engine in
  let capture, feed = Core.Capture.observer () in
  let store = Core.Capture.store capture in
  let total = List.length events in
  let refreshes = max 1 refreshes in
  let chunk = max 1 ((total + refreshes - 1) / refreshes) in
  ignore (Provkit_obs.Timeseries.record ring);
  let rec take n = function
    | [] -> ([], [])
    | x :: rest when n > 0 ->
      let batch, remaining = take (n - 1) rest in
      (x :: batch, remaining)
    | rest -> ([], rest)
  in
  let rec go i fed remaining =
    match remaining with
    | [] -> ()
    | _ ->
      let batch, rest = take chunk remaining in
      List.iter feed batch;
      (* A couple of queries per refresh so the query counters move on
         screen, not just the ingest ones. *)
      let db = Core.Prov_schema.to_database store in
      ignore (Relstore.Sql.query db "SELECT COUNT(*) FROM prov_node");
      ignore (Relstore.Sql.query db "SELECT kind, COUNT(*) FROM prov_node GROUP BY kind");
      ignore (Provkit_obs.Timeseries.record ring);
      let fed = fed + List.length batch in
      (match Provkit_obs.Timeseries.last_deltas ring with
      | None -> ()
      | Some rows ->
        if not no_clear then print_string "\027[2J\027[H";
        Printf.printf "provctl top — refresh %d/%d, %d/%d events ingested\n\n" i refreshes
          fed total;
        let live =
          List.filter (fun r -> r.Provkit_obs.Timeseries.s_cur > 0.0) rows
        in
        print_string (Provkit_obs.Timeseries.render live);
        flush stdout);
      go (i + 1) fed rest
  in
  go 1 0 events;
  match tj with
  | None -> ()
  | Some t ->
    Provkit_obs.Telemetry_log.close t;
    Printf.eprintf "top: telemetry journal -> %s\n" (Provkit_obs.Telemetry_log.path t)

let refreshes_arg =
  Arg.(
    value & opt int 5
    & info [ "refreshes" ] ~docv:"N" ~doc:"Number of screen refreshes over the run.")

let no_clear_flag =
  Arg.(
    value & flag
    & info [ "no-clear" ]
        ~doc:"Do not clear the terminal between refreshes (append instead).")

let since_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "since" ] ~docv:"FILE"
        ~doc:
          "Replay a telemetry journal into the ring first, so this run's deltas continue \
           a previous run's history (a torn tail is truncated to the clean prefix).")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Append every recorded telemetry point (and alert transition) to this durable \
           CRC-framed journal, replayable with --since.")

let top_cmd =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live telemetry: ingest the simulated event stream in chunks and refresh a \
          per-metric value/delta/rate display after each chunk")
    Term.(
      const top $ days_arg $ seed_arg $ refreshes_arg $ no_clear_flag $ since_arg
      $ journal_arg)

(* --- alerts + health ------------------------------------------------- *)

(* The alert engine watches the telemetry ring, so this command just
   installs the default rule catalog, optionally replays a journal
   (history first: the engine's hysteresis state continues across
   restarts), runs the instrumented workload, and reports what fired. *)
let alerts journal days seed json group_commit cache_capacity =
  Provkit_obs.Alert.install_defaults ();
  let tj =
    match journal with
    | None -> None
    | Some path ->
      (* open_ first: it truncates any torn tail, so the replay below
         reads a clean file. *)
      let t = Provkit_obs.Telemetry_log.open_ ~path in
      let rp =
        Provkit_obs.Telemetry_log.replay_into Provkit_obs.Timeseries.default ~path
      in
      Provkit_obs.Alert.replay_history rp.Provkit_obs.Telemetry_log.rp_points;
      Printf.eprintf "alerts: replayed %d point(s), %d transition(s) from %s\n"
        (List.length rp.Provkit_obs.Telemetry_log.rp_points)
        (List.length rp.Provkit_obs.Telemetry_log.rp_transitions)
        path;
      Provkit_obs.Telemetry_log.attach t;
      Some t
  in
  ignore (workload_snapshot ~group_commit ~cache_capacity days seed);
  (match tj with Some t -> Provkit_obs.Telemetry_log.close t | None -> ());
  if json then print_endline (Provkit_obs.Alert.to_json ())
  else begin
    print_string (Provkit_obs.Alert.render ());
    let trs = Provkit_obs.Alert.transitions () in
    if trs <> [] then begin
      Printf.printf "\ntransitions (%d total):\n" (Provkit_obs.Alert.transitions_recorded ());
      List.iter
        (fun tr ->
          Printf.printf "  #%d %s %s (%s) value %g\n" tr.Provkit_obs.Alert.tr_seq
            (Provkit_obs.Alert.kind_name tr.Provkit_obs.Alert.tr_kind)
            tr.Provkit_obs.Alert.tr_rule
            (Provkit_obs.Alert.severity_name tr.Provkit_obs.Alert.tr_severity)
            tr.Provkit_obs.Alert.tr_value)
        trs
    end
  end

let alerts_cmd =
  Cmd.v
    (Cmd.info "alerts"
       ~doc:
         "Run the instrumented workload with the default alert-rule catalog armed and \
          report rule states and fire/resolve transitions")
    Term.(
      const alerts $ journal_arg $ days_arg $ seed_arg $ json_flag $ group_commit_arg
      $ cache_capacity_arg)

(* Health composes the judgments only the subsystems can make: the WAL
   checks its own manifest, the stats catalog its freshness, the alert
   engine contributes its built-in open-alerts check, and the epoch
   cross-check below ties tables to their catalog entries. *)
let health days seed json =
  Provkit_obs.Metrics.set_enabled true;
  Provkit_obs.Alert.install_defaults ();
  let dir = Filename.temp_file "provctl-health" ".wal" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let ds =
    Harness.Dataset.build
      ~user_config:{ Browser.User_model.default_config with Browser.User_model.days }
      ~seed ()
  in
  let events = Browser.Engine.event_log ds.Harness.Dataset.engine in
  let handle = Core.Prov_log.Segmented.open_ dir in
  let capture, feed = Core.Capture.observer () in
  let store = Core.Capture.store capture in
  Core.Prov_log.Segmented.attach handle store;
  List.iter feed events;
  Core.Prov_log.Segmented.close handle;
  let db = Core.Prov_schema.to_database store in
  ignore (Relstore.Stats.analyze_database db);
  Core.Prov_log.Segmented.register_manifest_check ~dir;
  Relstore.Stats.register_health_check db;
  Provkit_obs.Health.register Provkit_obs.Names.health_epochs_consistent (fun () ->
      (* A catalog entry stamped with an epoch the table has not reached
         yet means the epoch discipline broke somewhere — the staleness
         rule every cache layer relies on is no longer trustworthy. *)
      let tables = Relstore.Database.tables db in
      let from_future =
        List.filter
          (fun t ->
            match Relstore.Stats.lookup t with
            | Some s -> s.Relstore.Stats.ts_epoch > Relstore.Table.epoch t
            | None -> false)
          tables
      in
      if from_future = [] then
        ( Provkit_obs.Health.Ok,
          Printf.sprintf "catalog epochs consistent across %d table(s)" (List.length tables)
        )
      else
        ( Provkit_obs.Health.Failing,
          Printf.sprintf "catalog epoch ahead of table epoch: %s"
            (String.concat ", " (List.map Relstore.Table.name from_future)) ));
  let report = Provkit_obs.Health.run () in
  if json then print_endline (Provkit_obs.Health.to_json report)
  else print_string (Provkit_obs.Health.render report);
  if Provkit_obs.Health.exit_code report <> 0 then exit 1

let health_cmd =
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Run a small instrumented workload, compose the registered health checks (WAL \
          manifest, stats freshness, open alerts, epoch consistency) and exit non-zero \
          when failing")
    Term.(const health $ days_arg $ seed_arg $ json_flag)

(* --- profile --------------------------------------------------------- *)

(* The stats workload again, but aimed at the tracer: every query gets a
   span (threshold zero), span ids are seeded for reproducibility, and
   the resulting tree is printed — or folded into flamegraph input. *)
let profile days seed folded json =
  Provkit_obs.Trace.clear ();
  Provkit_obs.Trace.seed_ids seed;
  Relstore.Query_exec.set_query_span_threshold_ns 0;
  ignore (workload_snapshot days seed);
  let spans = Provkit_obs.Trace.recent () in
  (match folded with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    List.iter
      (fun (stack, self_ns) -> Printf.fprintf oc "%s %Ld\n" stack self_ns)
      (Provkit_obs.Trace.folded spans);
    close_out oc;
    Printf.eprintf "folded stacks -> %s (flamegraph.pl %s > flame.svg)\n" path path);
  if json then List.iter (fun s -> print_endline (Provkit_obs.Trace.span_to_json s)) spans
  else print_string (Provkit_obs.Trace.render_trees (Provkit_obs.Trace.assemble spans))

let folded_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "folded" ] ~docv:"FILE"
        ~doc:"Write folded stacks (\"root;child self_ns\" lines) for flamegraph tooling.")

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run the instrumented workload with per-query spans and print the span tree \
          (--folded FILE for flamegraph input, --json for raw v2 JSONL spans)")
    Term.(const profile $ days_arg $ seed_arg $ folded_arg $ json_flag)

(* --- search --------------------------------------------------------- *)

let print_pages store results =
  List.iteri
    (fun i (page, score) ->
      match (Core.Prov_store.node store page).Core.Prov_node.kind with
      | Core.Prov_node.Page { url; title } ->
        Printf.printf "%2d. %-50s %s  (%.2f)\n" (i + 1)
          (Provkit_util.Strutil.truncate 50 title)
          url score
      | _ -> ())
    results

let search db query limit budget_ms =
  let store = load_store db in
  let index = Core.Prov_text_index.build store in
  let response =
    Core.Contextual_search.search ~budget:(budget_of budget_ms) ~limit index query
  in
  print_pages store
    (List.map
       (fun (r : Core.Contextual_search.result) ->
         (r.Core.Contextual_search.page, r.Core.Contextual_search.score))
       response.Core.Contextual_search.results);
  Printf.printf "(%.1f ms%s)\n" response.Core.Contextual_search.elapsed_ms
    (if response.Core.Contextual_search.truncated then ", truncated" else "")

let query_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"Search terms.")

let search_cmd =
  Cmd.v
    (Cmd.info "search" ~doc:"Contextual history search over a saved database")
    Term.(const search $ db_arg $ query_arg $ limit_arg $ budget_arg)

(* --- time-search ----------------------------------------------------- *)

let time_search db query context limit budget_ms =
  let store = load_store db in
  let index = Core.Prov_text_index.build store in
  let time_index = Core.Time_edges.rebuild_time_index store in
  let response =
    Core.Time_search.search ~budget:(budget_of budget_ms) ~limit index time_index ~query
      ~context
  in
  print_pages store
    (List.map
       (fun (r : Core.Time_search.result) -> (r.Core.Time_search.page, r.Core.Time_search.score))
       response.Core.Time_search.results);
  Printf.printf "(%.1f ms)\n" response.Core.Time_search.elapsed_ms

let context_arg =
  Arg.(
    required & pos 1 (some string) None
    & info [] ~docv:"CONTEXT" ~doc:"What else was on screen at the time.")

let time_search_cmd =
  Cmd.v
    (Cmd.info "time-search" ~doc:"\"QUERY associated with CONTEXT\" history search")
    Term.(const time_search $ db_arg $ query_arg $ context_arg $ limit_arg $ budget_arg)

(* --- lineage --------------------------------------------------------- *)

let lineage db path_fragment dot_out =
  let store = load_store db in
  let downloads =
    Core.Prov_store.nodes_of_kind store (fun n ->
        match n.Core.Prov_node.kind with
        | Core.Prov_node.Download { target_path; _ } ->
          Provkit_util.Strutil.contains_substring ~needle:path_fragment target_path
        | _ -> false)
  in
  match downloads with
  | [] -> Printf.printf "no download matching %S\n" path_fragment
  | node :: _ -> begin
    Printf.printf "download: %s\n"
      (Core.Prov_node.display (Core.Prov_store.node store node));
    match Core.Lineage.first_recognizable store node with
    | None -> print_endline "no recognizable ancestor found"
    | Some origin ->
      Printf.printf "recognized origin (%d hops):\n" origin.Core.Lineage.distance;
      List.iter
        (fun line -> Printf.printf "  %s\n" line)
        (Core.Lineage.describe_path store origin.Core.Lineage.path);
      match dot_out with
      | None -> ()
      | Some path ->
        Core.Dot_export.save ~path (Core.Dot_export.export_lineage store origin);
        Printf.printf "lineage graph -> %s (render with: dot -Tsvg %s)\n" path path
  end

let fragment_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Substring of the downloaded file's path.")

let dot_arg =
  Arg.(
    value & opt (some string) None
    & info [ "dot" ] ~docv:"FILE" ~doc:"Also write the lineage as a GraphViz file.")

let lineage_cmd =
  Cmd.v
    (Cmd.info "lineage" ~doc:"Where did this download come from?")
    Term.(const lineage $ db_arg $ fragment_arg $ dot_arg)

(* --- sessions ---------------------------------------------------------- *)

let sessions db about =
  let store = load_store db in
  let sessions = Sys.opaque_identity (Core.Sessions.detect store) in
  match about with
  | None ->
    Printf.printf "%d sessions\n" (List.length sessions);
    List.iter (fun s -> print_endline (Core.Sessions.describe store s)) sessions
  | Some query ->
    let index = Core.Prov_text_index.build store in
    List.iter
      (fun (s, score) ->
        Printf.printf "%.2f  %s\n" score (Core.Sessions.describe store s))
      (Core.Sessions.matching index sessions query)

let about_arg =
  Arg.(
    value & opt (some string) None
    & info [ "about" ] ~docv:"TEXT" ~doc:"Only sessions matching this text, best first.")

let sessions_cmd =
  Cmd.v
    (Cmd.info "sessions" ~doc:"Segment history into browsing sessions")
    Term.(const sessions $ db_arg $ about_arg)

(* --- sql -------------------------------------------------------------- *)

let sql db statement explain_only analyze json =
  let database = Relstore.Database.load ~path:db in
  if analyze then begin
    match Relstore.Sql.analyze_query database statement with
    | report ->
      if json then print_endline (Relstore.Sql.analyze_to_json report)
      else print_endline (Relstore.Sql.render_analyze report)
    | exception Relstore.Sql.Parse_error msg -> Printf.eprintf "parse error: %s\n" msg
  end
  else if explain_only then begin
    match Relstore.Sql.explain_query database statement with
    | report -> print_endline (Relstore.Sql.render_explain report)
    | exception Relstore.Sql.Parse_error msg -> Printf.eprintf "parse error: %s\n" msg
  end
  else begin
    match Relstore.Sql.query database statement with
    | result ->
      print_string (Relstore.Sql.render result);
      Printf.printf "(%d rows)\n" (List.length result.Relstore.Sql.rows)
    | exception Relstore.Sql.Parse_error msg -> Printf.eprintf "parse error: %s\n" msg
  end

let statement_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"SQL" ~doc:"e.g. \"SELECT label FROM prov_node WHERE kind = 4 LIMIT 10\".")

let explain_flag =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Run the query and report the planner's access path, estimated vs. scanned vs. \
           returned rows, and latency instead of the result rows.")

let analyze_flag =
  Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:
          "EXPLAIN ANALYZE: run the query and print a per-operator profile tree (probe, \
           fetch, filter, sort, limit, join build/probe) with rows in/out, duration and \
           percent of total per node.  With --json, emit the raw profile tree.")

let sql_json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"With --analyze: emit the raw profile as JSON.")

let sql_cmd =
  Cmd.v
    (Cmd.info "sql" ~doc:"Run a SQL query against a saved database (provenance or places)")
    Term.(const sql $ db_arg $ statement_arg $ explain_flag $ analyze_flag $ sql_json_flag)

(* --- suggest ----------------------------------------------------------- *)

let suggest db typed context_terms =
  let store = load_store db in
  (* Resolve a textual context into store nodes: the best-matching pages. *)
  let context =
    match context_terms with
    | None -> []
    | Some text ->
      let index = Core.Prov_text_index.build store in
      List.map fst (Core.Prov_text_index.search ~limit:3 index text)
  in
  List.iteri
    (fun i s ->
      Printf.printf "%d. %-48s %s  (base %.2f + context %.2f)\n" (i + 1)
        (Provkit_util.Strutil.truncate 48 s.Core.Suggest.title)
        s.Core.Suggest.url s.Core.Suggest.base_score s.Core.Suggest.context_score)
    (Core.Suggest.suggest ~context store typed)

let typed_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TYPED" ~doc:"What the user typed.")

let context_arg_opt =
  Arg.(
    value & opt (some string) None
    & info [ "context" ] ~docv:"TEXT" ~doc:"What the user is currently looking at.")

let suggest_cmd =
  Cmd.v
    (Cmd.info "suggest" ~doc:"Provenance-aware location-bar suggestions")
    Term.(const suggest $ db_arg $ typed_arg $ context_arg_opt)

(* --- tree ------------------------------------------------------------ *)

let tree db since max_nodes =
  let store = load_store db in
  let t = Core.History_tree.build store in
  Printf.printf "%d visits in %d sessions (forest: %b)\n\n"
    (Core.History_tree.size t)
    (List.length (Core.History_tree.roots t))
    (Core.History_tree.is_forest t);
  print_string (Core.History_tree.render ~max_nodes ?since store t)

let since_arg =
  Arg.(
    value & opt (some int) None
    & info [ "since" ] ~docv:"TIME" ~doc:"Only sessions starting at or after this time.")

let max_nodes_arg =
  Arg.(value & opt int 120 & info [ "max-nodes" ] ~docv:"N" ~doc:"Output size cap.")

let tree_cmd =
  Cmd.v
    (Cmd.info "tree" ~doc:"Render the navigation-history forest (Ayers-Stasko view)")
    Term.(const tree $ db_arg $ since_arg $ max_nodes_arg)

(* --- expire ------------------------------------------------------------ *)

let expire db cutoff out =
  let store = load_store db in
  let before = Relstore.Database.total_size (Relstore.Database.load ~path:db) in
  let r = Core.Retention.expire ~cutoff store in
  let out_db = Core.Prov_schema.to_database r.Core.Retention.store in
  Relstore.Database.save out_db ~path:out;
  Printf.printf
    "expired %d visit instances before t=%d; %d summary edges added; %d nodes kept\n"
    r.Core.Retention.expired_visits cutoff r.Core.Retention.summary_edges
    r.Core.Retention.kept_nodes;
  Printf.printf "%s -> %s (%s -> %s)\n" db out
    (Harness.Report.fmt_bytes before)
    (Harness.Report.fmt_bytes (Relstore.Database.total_size out_db))

let cutoff_arg =
  Arg.(
    required & pos 0 (some int) None
    & info [] ~docv:"CUTOFF" ~doc:"Expire visit instances opened before this time.")

let expire_out_arg =
  Arg.(
    value & opt string "expired.db"
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output database path.")

let expire_cmd =
  Cmd.v
    (Cmd.info "expire"
       ~doc:"Provenance-preserving history expiration (old visits become page summaries)")
    Term.(const expire $ db_arg $ cutoff_arg $ expire_out_arg)

(* --- wal --------------------------------------------------------------- *)

(* Record simulated browsing into a segmented, checksummed WAL, then
   (optionally) hurt the active segment the way a crashing machine
   would, and report what recovery salvages. *)
let wal days seed dir max_segment_bytes compact_every fault_spec group_commit =
  let fault =
    match fault_spec with
    | None -> None
    | Some spec -> begin
      match Provkit_util.Faulty_io.parse_fault spec with
      | Some f -> Some f
      | None ->
        Printf.eprintf
          "bad --inject-fault %S (want crash@N, tear@N, flip@N or dup-flush)\n" spec;
        exit 2
    end
  in
  Provkit_obs.Flight.set_context
    [ ("seed", string_of_int seed); ("days", string_of_int days); ("wal_dir", dir) ];
  let incidents_before = Provkit_obs.Flight.recorded () in
  let ds =
    Harness.Dataset.build
      ~user_config:{ Browser.User_model.default_config with Browser.User_model.days }
      ~seed ()
  in
  let events = Browser.Engine.event_log ds.Harness.Dataset.engine in
  let handle =
    Core.Prov_log.Segmented.open_
      ~config:
        {
          Core.Prov_log.Segmented.default_config with
          Core.Prov_log.Segmented.max_segment_bytes;
          Core.Prov_log.Segmented.group_commit_ops = max 1 group_commit;
        }
      dir
  in
  let capture, feed = Core.Capture.observer () in
  let store = Core.Capture.store capture in
  Core.Prov_log.Segmented.attach handle store;
  List.iteri
    (fun i event ->
      feed event;
      match compact_every with
      | Some n when n > 0 && (i + 1) mod n = 0 -> Core.Prov_log.Segmented.compact handle store
      | _ -> ())
    events;
  (match fault with
  | None -> ()
  | Some f ->
    Printf.printf "injecting fault on active segment: %s\n"
      (Provkit_util.Faulty_io.fault_to_string f);
    Provkit_util.Faulty_io.arm (Core.Prov_log.Segmented.active_sink handle) [ f ]);
  (* The armed fault fires inside this close; the shutdown span gives
     the flight recorder an ancestry to blame. *)
  Provkit_obs.Trace.with_span "wal.shutdown"
    ~attrs:
      [
        ( "fault",
          match fault with
          | None -> "none"
          | Some f -> Provkit_util.Faulty_io.fault_to_string f );
      ]
    (fun () -> Core.Prov_log.Segmented.close handle);
  Printf.printf "logged %d events as %d ops into %s (generation %d, %d live segments)\n"
    (List.length events)
    (Core.Prov_log.Segmented.appended handle)
    dir
    (Core.Prov_log.Segmented.generation handle)
    (List.length (Core.Prov_log.Segmented.segments handle));
  let r = Core.Prov_log.Segmented.recover ~dir () in
  let rs = r.Core.Prov_log.Segmented.store in
  Printf.printf "recovery: %d tail ops over %d segments%s\n"
    r.Core.Prov_log.Segmented.ops_applied r.Core.Prov_log.Segmented.segments_read
    (if r.Core.Prov_log.Segmented.truncated then " (stopped at a damaged frame)" else " (clean)");
  Printf.printf "live store:      %d nodes, %d edges\n"
    (Core.Prov_store.node_count store) (Core.Prov_store.edge_count store);
  Printf.printf "recovered store: %d nodes, %d edges\n"
    (Core.Prov_store.node_count rs) (Core.Prov_store.edge_count rs);
  (* Anything abnormal (the injected fault firing, a truncated
     recovery) landed in the flight recorder — leave the postmortem
     next to the WAL it explains. *)
  List.iter
    (fun (i : Provkit_obs.Flight.incident) ->
      if i.Provkit_obs.Flight.seq > incidents_before then begin
        let path =
          Filename.concat dir (Printf.sprintf "postmortem-%d.json" i.Provkit_obs.Flight.seq)
        in
        Provkit_obs.Flight.dump i ~path;
        Printf.printf "postmortem -> %s (%s)\n" path i.Provkit_obs.Flight.reason
      end)
    (Provkit_obs.Flight.incidents ())

let dir_arg =
  Arg.(
    value & opt string "wal.d"
    & info [ "dir" ] ~docv:"DIR" ~doc:"WAL directory (created if missing).")

let max_segment_arg =
  Arg.(
    value & opt int 65536
    & info [ "max-segment-bytes" ] ~docv:"BYTES" ~doc:"Rotate segments beyond this size.")

let compact_every_arg =
  Arg.(
    value & opt (some int) None
    & info [ "compact-every" ] ~docv:"N" ~doc:"Compact the WAL after every N events.")

let fault_arg =
  Arg.(
    value & opt (some string) None
    & info [ "inject-fault" ] ~docv:"SPEC"
        ~doc:
          "Hurt the active segment before recovery: crash@N (drop bytes past N), tear@N \
           (truncate the final write to N bytes), flip@N (complement the byte at offset N), \
           dup-flush (replay the unsynced tail).")

let wal_cmd =
  Cmd.v
    (Cmd.info "wal"
       ~doc:"Write browsing into a segmented checksummed journal, optionally inject a fault, \
             and measure recovery")
    Term.(
      const wal $ days_arg $ seed_arg $ dir_arg $ max_segment_arg $ compact_every_arg
      $ fault_arg $ group_commit_arg)

(* --- matview --------------------------------------------------------- *)

(* Build the five Places matviews over an event stream (a recorded one
   via --events, otherwise a fresh simulation) and report on them.
   Actions: list (registry status), status (status + current values),
   refresh (force a rebuild first — the counters show it). *)

let matview action days seed events_path top json =
  let events =
    match events_path with
    | Some path -> Browser.Event_codec.load ~path
    | None ->
      let ds =
        Harness.Dataset.build
          ~user_config:{ Browser.User_model.default_config with Browser.User_model.days }
          ~seed ()
      in
      Browser.Engine.event_log ds.Harness.Dataset.engine
  in
  let places = Browser.Places_db.create () in
  let mv = Browser.Places_views.create ~top_n:top places in
  Browser.Places_views.ingest_batch mv events;
  if action = `Refresh then Browser.Places_views.refresh mv;
  let status = Browser.Places_views.status mv in
  let first, revisits = Browser.Places_views.revisit_stats mv in
  if json then begin
    List.iter
      (fun s ->
        Printf.printf
          "{\"view\":\"%s\",\"folded\":%d,\"updates\":%d,\"refreshes\":%d,\"staleness\":%d}\n"
          (Provkit_obs.Metrics.json_escape s.Relstore.Matview.st_name)
          s.Relstore.Matview.st_folded s.Relstore.Matview.st_updates
          s.Relstore.Matview.st_refreshes s.Relstore.Matview.st_staleness)
      status;
    Printf.printf
      "{\"events\":%d,\"recent_visits_7d\":%d,\"first_visits\":%d,\"revisits\":%d}\n"
      (Browser.Places_views.events_ingested mv)
      (Browser.Places_views.recent_visits mv)
      first revisits
  end
  else begin
    Printf.printf "%d events folded into %d views\n\n"
      (Browser.Places_views.events_ingested mv)
      (List.length status);
    Printf.printf "%-24s %8s %8s %9s %9s\n" "view" "folded" "updates" "refreshes" "staleness";
    List.iter
      (fun s ->
        Printf.printf "%-24s %8d %8d %9d %9d\n" s.Relstore.Matview.st_name
          s.Relstore.Matview.st_folded s.Relstore.Matview.st_updates
          s.Relstore.Matview.st_refreshes s.Relstore.Matview.st_staleness)
      status;
    if action <> `List then begin
      Printf.printf "\nawesomebar frecency (top %d):\n" top;
      List.iter
        (fun (id, url, f) -> Printf.printf "  %6.1f  #%-4d %s\n" f id url)
        (Browser.Places_views.frecency_top mv);
      Printf.printf "\nvisits per host:\n";
      List.iteri
        (fun i (host, n) -> if i < top then Printf.printf "  %6d  %s\n" n host)
        (Browser.Places_views.host_visits mv);
      Printf.printf "\ndownloads per referrer host:\n";
      List.iter
        (fun (host, n) -> Printf.printf "  %6d  %s\n" n host)
        (Browser.Places_views.download_referrers mv);
      Printf.printf "\nvisits in the last 7 days: %d\n"
        (Browser.Places_views.recent_visits mv);
      Printf.printf "revisit detection (bloom): %d first visits, %d revisits\n" first
        revisits
    end
  end

let matview_action_arg =
  let actions = [ ("list", `List); ("status", `Status); ("refresh", `Refresh) ] in
  Arg.(
    value
    & pos 0 (enum actions) `Status
    & info [] ~docv:"ACTION" ~doc:"One of: list, status, refresh.")

let matview_events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:"Fold a recorded event stream (generate --events-out) instead of simulating.")

let matview_top_arg =
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Rows kept by the frecency view.")

let matview_json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit view status as JSON, one object per line.")

let matview_cmd =
  Cmd.v
    (Cmd.info "matview"
       ~doc:
         "Incremental materialized views over the capture stream: list them, show their \
          values, or force a refresh")
    Term.(
      const matview $ matview_action_arg $ days_arg $ seed_arg $ matview_events_arg
      $ matview_top_arg $ matview_json_arg)

(* --- experiments ----------------------------------------------------- *)

let experiments seed quick =
  List.iter Harness.Report.print (Harness.Experiments.run_all ~quick ~seed ())

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Small dataset, fewer samples.")

let experiments_cmd =
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate every paper experiment table")
    Term.(const experiments $ seed_arg $ quick_arg)

(* --- serve / loadgen -------------------------------------------------- *)

let daemon_config sessions events queue batch snapshot_every readers read_mix
    analyze_every compact_every seed wal_dir =
  {
    Daemon.Provd.sessions;
    events_per_session = events;
    queue_capacity = queue;
    batch_size = batch;
    snapshot_every;
    read_workers = readers;
    read_mix;
    analyze_every;
    compact_every;
    seed;
    wal_dir;
  }

let print_report ~json (r : Daemon.Provd.report) =
  let elapsed_s = float_of_int r.Daemon.Provd.r_elapsed_ns /. 1e9 in
  let rate =
    if elapsed_s > 0. then float_of_int r.Daemon.Provd.r_events /. elapsed_s else 0.
  in
  let q = r.Daemon.Provd.r_queue in
  if json then
    Printf.printf
      "{\"events\":%d,\"batches\":%d,\"snapshots\":%d,\"reads\":%d,\"read_p99_ns\":%d,\"elapsed_ns\":%d,\"events_per_sec\":%.1f,\"queue_max_depth\":%d,\"jobs\":%d,\"wal_appended\":%d}\n"
      r.Daemon.Provd.r_events r.Daemon.Provd.r_batches r.Daemon.Provd.r_snapshots
      r.Daemon.Provd.r_reads r.Daemon.Provd.r_read_p99_ns r.Daemon.Provd.r_elapsed_ns rate
      q.Daemon.Event_queue.max_depth r.Daemon.Provd.r_jobs r.Daemon.Provd.r_wal_appended
  else begin
    Printf.printf "ingested %d events in %d batches over %.3fs (%.0f events/sec)\n"
      r.Daemon.Provd.r_events r.Daemon.Provd.r_batches elapsed_s rate;
    Printf.printf "queue: %d pushed, %d popped, high-water %d, residual %d\n"
      q.Daemon.Event_queue.pushed q.Daemon.Event_queue.popped
      q.Daemon.Event_queue.max_depth q.Daemon.Event_queue.depth;
    Printf.printf "snapshots published: %d; reads served: %d (p99 %.3f ms)\n"
      r.Daemon.Provd.r_snapshots r.Daemon.Provd.r_reads
      (float_of_int r.Daemon.Provd.r_read_p99_ns /. 1e6);
    Printf.printf "background jobs: %d; WAL ops appended: %d\n" r.Daemon.Provd.r_jobs
      r.Daemon.Provd.r_wal_appended;
    let nodes = List.fold_left (fun acc (_, n) -> acc + n) 0 r.Daemon.Provd.r_node_kinds in
    let edges = List.fold_left (fun acc (_, n) -> acc + n) 0 r.Daemon.Provd.r_edge_kinds in
    Printf.printf "matviews: %d nodes, %d edges across kinds\n" nodes edges
  end

let serve sessions events queue batch snapshot_every readers read_mix analyze_every
    compact_every seed wal_dir json =
  let cfg =
    daemon_config sessions events queue batch snapshot_every readers read_mix
      analyze_every compact_every seed wal_dir
  in
  let t = Daemon.Provd.start cfg in
  Daemon.Provd.register_health_check t;
  let report = Daemon.Provd.wait t in
  print_report ~json report;
  let h = Provkit_obs.Health.run () in
  let verdict =
    match h.Provkit_obs.Health.h_verdict with
    | Provkit_obs.Health.Ok -> "ok"
    | Provkit_obs.Health.Degraded -> "degraded"
    | Provkit_obs.Health.Failing -> "failing"
  in
  if json then Printf.printf "{\"health\":\"%s\"}\n" verdict
  else Printf.printf "health: %s\n" verdict

let loadgen sessions events read_mix seed json =
  (* Memory-only throughput probe: same engine as serve, no WAL, no
     background jobs — what the bench's daemon-ingest row measures. *)
  let cfg =
    {
      Daemon.Provd.default with
      Daemon.Provd.sessions;
      events_per_session = events;
      read_mix;
      seed;
    }
  in
  print_report ~json (Daemon.Provd.run cfg)

let serve_sessions_arg =
  Arg.(
    value & opt int 4
    & info [ "sessions" ] ~docv:"N" ~doc:"Concurrent producer sessions (one domain each).")

let serve_events_arg =
  Arg.(value & opt int 500 & info [ "events" ] ~docv:"N" ~doc:"Events per session.")

let serve_queue_arg =
  Arg.(value & opt int 512 & info [ "queue" ] ~docv:"N" ~doc:"Bounded ingest queue capacity.")

let serve_batch_arg =
  Arg.(value & opt int 32 & info [ "batch" ] ~docv:"N" ~doc:"Max events per ingest batch.")

let serve_snapshot_arg =
  Arg.(
    value & opt int 4
    & info [ "snapshot-every" ] ~docv:"N" ~doc:"Publish a read snapshot every N batches.")

let serve_readers_arg =
  Arg.(value & opt int 2 & info [ "readers" ] ~docv:"N" ~doc:"Concurrent read-worker domains.")

let serve_read_mix_arg =
  Arg.(
    value & opt float 0.25
    & info [ "read-mix" ] ~docv:"P"
        ~doc:"Per pushed event, probability the session also issues a read.")

let serve_analyze_arg =
  Arg.(
    value & opt int 8
    & info [ "analyze-every" ] ~docv:"N"
        ~doc:
          "Every N batches, analyze the latest snapshot's stats if its row count has at \
           least doubled since the last analyze (0 disables).")

let serve_compact_arg =
  Arg.(
    value & opt int 0
    & info [ "compact-every" ] ~docv:"N"
        ~doc:"Request WAL compaction every N batches (0 disables).")

let serve_wal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"DIR" ~doc:"Journal every batch to a segmented WAL here.")

let serve_json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the run report as JSON.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the provd fleet: concurrent sessions feeding a bounded queue, one ingest \
          owner group-committing to the WAL, snapshot-isolated read workers, and \
          non-blocking background jobs")
    Term.(
      const serve $ serve_sessions_arg $ serve_events_arg $ serve_queue_arg
      $ serve_batch_arg $ serve_snapshot_arg $ serve_readers_arg $ serve_read_mix_arg
      $ serve_analyze_arg $ serve_compact_arg $ seed_arg $ serve_wal_arg $ serve_json_arg)

let loadgen_cmd =
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive the provd ingest path with deterministic sessions (no WAL, no background \
          jobs) and report throughput and read latency")
    Term.(
      const loadgen $ serve_sessions_arg $ serve_events_arg $ serve_read_mix_arg $ seed_arg
      $ serve_json_arg)

(* --- lint ------------------------------------------------------------ *)

let lint root checks json =
  let module L = Provkit_lint.Driver in
  let checks = match checks with [] -> L.check_ids | cs -> cs in
  let findings = L.lint_tree ~checks ~root () in
  if json then print_endline (L.render_json findings)
  else begin
    if findings <> [] then print_endline (L.render_text findings);
    Printf.eprintf "provlint: %d finding(s) in %d file(s)\n" (List.length findings)
      (List.length (L.tree_files ~root))
  end;
  if findings <> [] then exit 1

let lint_root_arg =
  Arg.(
    value & opt string "."
    & info [ "root" ] ~docv:"DIR" ~doc:"Repository root containing lib/ and bin/.")

let lint_check_arg =
  let check_conv =
    Arg.enum (List.map (fun (id, _) -> (id, id)) Provkit_lint.Driver.all_checks)
  in
  Arg.(
    value & opt_all check_conv []
    & info [ "check" ] ~docv:"ID" ~doc:"Run only this check (repeatable; default: all).")

let lint_json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit findings as JSON, one object per line.")

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the provlint static checks over lib/ and bin/ (see LINTING.md)")
    Term.(const lint $ lint_root_arg $ lint_check_arg $ lint_json_arg)

let () =
  (* Flight-recorder wiring: injected faults and uncaught exceptions
     both leave a postmortem. *)
  Provkit_obs.Flight.install_fault_hook ();
  Provkit_obs.Flight.set_context [ ("argv", String.concat " " (Array.to_list Sys.argv)) ];
  let doc = "browser provenance: capture, store and query (TaPP '09 reproduction)" in
  let info = Cmd.info "provctl" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        generate_cmd; replay_cmd; stats_cmd; analyze_cmd; slowlog_cmd; top_cmd;
        alerts_cmd; health_cmd; profile_cmd; search_cmd; time_search_cmd; lineage_cmd;
        tree_cmd; sql_cmd; suggest_cmd; sessions_cmd; expire_cmd; wal_cmd; matview_cmd;
        serve_cmd; loadgen_cmd; experiments_cmd; lint_cmd;
      ]
  in
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Provkit_obs.Flight.record "provctl.uncaught" ~attrs:[ ("exn", Printexc.to_string e) ];
    (match Provkit_obs.Flight.latest () with
    | None -> ()
    | Some i ->
      let path = "provctl-postmortem.json" in
      Provkit_obs.Flight.dump i ~path;
      Printf.eprintf "provctl: uncaught exception; postmortem -> %s\n" path);
    Printexc.raise_with_backtrace e bt
