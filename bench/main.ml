(* The benchmark harness.

   Part 1 — bechamel micro-benchmarks: one Test.make per paper
   experiment that has a latency dimension (the four S2 use-case queries
   plus the persistence path), all run against the standard 79-day
   dataset, reporting nanoseconds per run via OLS.

   Part 2 — the experiment tables: every E1..E16 report from DESIGN.md's
   experiment index, regenerated and printed (these are the numbers
   EXPERIMENTS.md quotes).

   Run with: dune exec bench/main.exe
   Use BENCH_QUICK=1 for a fast smoke run. *)

open Bechamel
open Toolkit

let quick = Sys.getenv_opt "BENCH_QUICK" <> None

let seed = 42

let dataset =
  lazy (if quick then Harness.Dataset.with_days ~seed 8 else Harness.Dataset.default ~seed ())

(* ------------------------------------------------------------------ *)
(* Part 1: micro-benchmarks                                             *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let ds = Lazy.force dataset in
  let index = Core.Api.text_index ds.Harness.Dataset.api in
  let time_index = Harness.Dataset.time_index ds in
  let store = Harness.Dataset.store ds in
  let rng = Provkit_util.Prng.create 2024 in
  let queries =
    match
      List.map
        (fun (e : Browser.User_model.search_episode) -> e.Browser.User_model.query)
        ds.Harness.Dataset.trace.Browser.User_model.searches
    with
    | [] -> [| "wine" |]
    | qs -> Array.of_list qs
  in
  let downloads =
    Array.of_list
      (List.filter_map
         (fun (d : Browser.User_model.download_episode) ->
           Core.Prov_store.download_node store d.Browser.User_model.download_id)
         ds.Harness.Dataset.trace.Browser.User_model.downloads)
  in
  let hubs =
    Array.of_list
      (List.filter_map
         (fun h -> Harness.Dataset.page_node ds h)
         (List.concat_map
            (fun ti -> Webmodel.Web_graph.hubs_of_topic ds.Harness.Dataset.web ti)
            (List.init (Webmodel.Web_graph.topic_count ds.Harness.Dataset.web) Fun.id)))
  in
  let pick arr = Provkit_util.Prng.pick rng arr in
  [
    (* E3/E4: contextual history search (S2.1) *)
    Test.make ~name:"E3-contextual-history-search"
      (Staged.stage (fun () ->
           ignore (Core.Contextual_search.search index (pick queries))));
    (* E3/E5: personalization term mining (S2.2) *)
    Test.make ~name:"E3-personalize-web-search"
      (Staged.stage (fun () -> ignore (Core.Personalize.expand index (pick queries))));
    (* E3/E6: time-contextual search (S2.3) *)
    Test.make ~name:"E3-time-contextual-search"
      (Staged.stage (fun () ->
           ignore
             (Core.Time_search.search index time_index ~query:(pick queries)
                ~context:(pick queries))));
    (* E3/E7: download lineage (S2.4) *)
    Test.make ~name:"E3-download-lineage"
      (Staged.stage (fun () ->
           if Array.length downloads > 0 then
             ignore (Core.Lineage.first_recognizable store (pick downloads))));
    Test.make ~name:"E3-downloads-descending"
      (Staged.stage (fun () ->
           if Array.length hubs > 0 then
             ignore (Core.Lineage.downloads_descending store (pick hubs))));
    (* E3 bounded variant: the paper's 200ms bound *)
    Test.make ~name:"E3-contextual-bounded-200ms"
      (Staged.stage (fun () ->
           ignore
             (Core.Contextual_search.search ~budget:Core.Query_budget.paper_default index
                (pick queries))));
    (* E2: the persistence path whose output is measured *)
    Test.make ~name:"E2-serialize-provenance-store"
      (Staged.stage (fun () -> ignore (Core.Prov_schema.to_database store)));
    (* E9: acyclicity check over the whole store *)
    Test.make ~name:"E9-acyclicity-check"
      (Staged.stage (fun () -> ignore (Core.Versioning.is_acyclic store)));
  ]

let micro_iters = if quick then 200 else 1000

(* (name, ns/run) for every micro test — shared by the table printer and
   the --json artifact writer. *)
let measure_micro () =
  let tests = micro_tests () in
  let cfg =
    Benchmark.cfg ~limit:micro_iters
      ~quota:(Time.second (if quick then 0.2 else 0.7))
      ~kde:None ()
  in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  List.concat_map
    (fun test ->
      let results =
        Benchmark.all cfg [ Instance.monotonic_clock ]
          (Test.make_grouped ~name:"" [ test ])
      in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.fold
        (fun name ols_result acc ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (est :: _) -> est
            | _ -> nan
          in
          (name, ns) :: acc)
        analyzed [])
    tests

let run_micro measured =
  print_endline "== micro-benchmarks (bechamel, ns/run via OLS) ==\n";
  Provkit_util.Table_fmt.print
    ~header:[ "benchmark"; "time/run"; "time/run (ms)" ]
    (List.map
       (fun (name, ns) ->
         [ name; Printf.sprintf "%.0f ns" ns; Printf.sprintf "%.3f ms" (ns /. 1e6) ])
       measured);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 1.5: observability overhead                                     *)
(* ------------------------------------------------------------------ *)

(* The instrumentation contract is "default cheap": a disabled registry
   costs one branch per record; an enabled one a few array writes plus
   two clock reads per query.  Run the same indexed-probe workload with
   the registry off and on and report the relative cost. *)
let measure_obs_overhead () =
  let ds = Lazy.force dataset in
  let store = Harness.Dataset.store ds in
  let db = Core.Prov_schema.to_database store in
  let nodes = Relstore.Database.table db "prov_node" in
  let schema = Relstore.Table.schema nodes in
  let probes =
    Relstore.Table.fold nodes ~init:[] ~f:(fun acc _ row ->
        if List.length acc >= 64 then acc
        else
          match Relstore.Row.text_opt schema row "url" with
          | Some u -> Relstore.Predicate.Eq ("url", Relstore.Value.Text u) :: acc
          | None -> acc)
    |> Array.of_list
  in
  let probe_work () =
    Array.iter (fun p -> ignore (Relstore.Query_exec.select ~where:p nodes)) probes
  in
  let scan_pred = Relstore.Predicate.Eq ("kind", Relstore.Value.Int 1) in
  let scan_work () = ignore (Relstore.Query_exec.select ~where:scan_pred nodes) in
  let measure work iters queries_per_iter enabled =
    Provkit_obs.Metrics.set_enabled enabled;
    work ();
    let t0 = Provkit_util.Timing.now_ns () in
    for _ = 1 to iters do
      work ()
    done;
    let dt = Int64.to_float (Int64.sub (Provkit_util.Timing.now_ns ()) t0) in
    dt /. float_of_int (iters * queries_per_iter)
  in
  let was_on = Provkit_obs.Metrics.enabled () in
  let row name work iters queries_per_iter =
    let off_ns = measure work iters queries_per_iter false in
    let on_ns = measure work iters queries_per_iter true in
    (name, off_ns, on_ns)
  in
  let probe_iters = if quick then 200 else 2000 in
  let scan_iters = if quick then 50 else 200 in
  (* The probes repeat identical queries, which is exactly what the
     result cache short-circuits — leave it on and both the off and on
     runs would time cache hits instead of the instrumented query path. *)
  Relstore.Query_exec.set_cache_enabled false;
  let rows =
    [
      row "index probe (worst case)" probe_work probe_iters (Array.length probes);
      row "full scan (representative)" scan_work scan_iters 1;
    ]
  in
  Relstore.Query_exec.set_cache_enabled true;
  Provkit_obs.Metrics.set_enabled was_on;
  rows

let run_obs_overhead measured =
  print_endline "== observability overhead (ns/query, registry off vs on) ==\n";
  Provkit_util.Table_fmt.print ~header:[ "workload"; "off"; "on"; "overhead" ]
    (List.map
       (fun (name, off_ns, on_ns) ->
         [
           name;
           Printf.sprintf "%.0f" off_ns;
           Printf.sprintf "%.0f" on_ns;
           Printf.sprintf "%+.1f%%" (100.0 *. ((on_ns /. off_ns) -. 1.0));
         ])
       measured);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 1.6: hot-path rows — read cache and WAL group commit            *)
(* ------------------------------------------------------------------ *)

(* The two PR-5 hot paths, each as a before/after pair of artifact rows
   so bench_compare.sh can gate the speedups:
   - a repeated scan-shaped select, cache off vs warm cache;
   - WAL ingest of the same op list, one fsync per append vs
     group-committed batches.
   Manual timing loops (not bechamel): both paths are stateful — the
   cache must stay warm across runs, the WAL must write to a fresh
   directory per run — which OLS sampling does not accommodate. *)

let time_per_op iters per_iter f =
  f ();
  let t0 = Provkit_util.Timing.now_ns () in
  for _ = 1 to iters do
    f ()
  done;
  let dt = Int64.to_float (Int64.sub (Provkit_util.Timing.now_ns ()) t0) in
  dt /. float_of_int (iters * per_iter)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let measure_hot_paths () =
  let ds = Lazy.force dataset in
  let store = Harness.Dataset.store ds in
  let db = Core.Prov_schema.to_database store in
  let nodes = Relstore.Database.table db "prov_node" in
  let pred = Relstore.Predicate.Eq ("kind", Relstore.Value.Int 1) in
  let select_iters = if quick then 100 else 1000 in
  Relstore.Query_exec.set_cache_enabled false;
  let cold_ns =
    time_per_op select_iters 1 (fun () ->
        ignore (Relstore.Query_exec.select ~where:pred nodes))
  in
  Relstore.Query_exec.set_cache_enabled true;
  Relstore.Query_exec.clear_cache ();
  let cached_ns =
    time_per_op select_iters 1 (fun () ->
        ignore (Relstore.Query_exec.select ~where:pred nodes))
  in
  (* A realistic op stream for the ingest pair: record a synthetic burst
     of visits through the journaling store. *)
  let wal_ops =
    let rstore, journal = Core.Prov_log.recording_store () in
    for i = 1 to if quick then 128 else 512 do
      ignore
        (Core.Prov_store.add_visit rstore ~engine_visit:i
           ~url:(Printf.sprintf "https://bench.example/%d" i)
           ~title:"bench" ~transition:Browser.Transition.Link ~tab:1 ~time:i)
    done;
    Core.Prov_log.ops journal
  in
  let n_ops = List.length wal_ops in
  let wal_iters = if quick then 3 else 10 in
  let tmp_root =
    let d = Filename.temp_file "provkit_bench_wal" "" in
    Sys.remove d;
    Unix.mkdir d 0o700;
    d
  in
  let run_no = ref 0 in
  let module Seg = Core.Prov_log.Segmented in
  let ingest ~batched () =
    incr run_no;
    let dir = Filename.concat tmp_root (Printf.sprintf "run%d" !run_no) in
    let config =
      if batched then
        { Seg.default_config with Seg.group_commit_ops = 64; Seg.group_commit_bytes = 1 lsl 20 }
      else Seg.default_config
    in
    let h = Seg.open_ ~config dir in
    if batched then Seg.append_batch h wal_ops else List.iter (Seg.append h) wal_ops;
    Seg.close h
  in
  let unbatched_ns = time_per_op wal_iters n_ops (ingest ~batched:false) in
  let batched_ns = time_per_op wal_iters n_ops (ingest ~batched:true) in
  remove_tree tmp_root;
  [
    ("hot-select-cold", select_iters, cold_ns);
    ("hot-select-cached", select_iters, cached_ns);
    ("wal-ingest-unbatched", wal_iters * n_ops, unbatched_ns);
    ("wal-ingest-batched", wal_iters * n_ops, batched_ns);
  ]

let run_hot_paths measured =
  print_endline "== hot paths (read cache, WAL group commit; ns/op) ==\n";
  Provkit_util.Table_fmt.print ~header:[ "path"; "ns/op" ]
    (List.map (fun (name, _, ns) -> [ name; Printf.sprintf "%.0f" ns ]) measured);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 1.7: matview rows — incremental update vs cold rescan           *)
(* ------------------------------------------------------------------ *)

(* The matview acceptance pair: ns per event folded through the warm
   Places views (the real ingest path: table apply + all five view
   folds) against ns per cold recomputation of the same five queries
   over the final tables.  bench_smoke.sh gates the incremental side at
   >= 5x faster — the point of maintaining the views at all. *)
let measure_matview () =
  let n_events = if quick then 512 else 2_048 in
  let urls =
    Array.init 40 (fun i ->
        Webmodel.Url.make
          ~path:[ Printf.sprintf "p%d" (i mod 5) ]
          (Printf.sprintf "site%d.example" (i / 5)))
  in
  let mk i =
    Browser.Event.Visit
      {
        visit_id = i;
        time = i * 400;
        tab = 1;
        page = None;
        url = urls.(i mod Array.length urls);
        title = "bench";
        transition = (if i mod 11 = 0 then Browser.Transition.Typed else Browser.Transition.Link);
        referrer = (if i > 1 && i mod 3 <> 0 then Some (i - 1) else None);
        via_bookmark = None;
      }
  in
  let places = Browser.Places_db.create () in
  let mv = Browser.Places_views.create places in
  Browser.Places_views.ingest_batch mv (List.init n_events (fun i -> mk (i + 1)));
  let rescan_iters = if quick then 20 else 100 in
  let rescan_ns =
    time_per_op rescan_iters 1 (fun () ->
        ignore (Browser.Places_views.cold_frecency_top ~top_n:10 places);
        ignore (Browser.Places_views.cold_host_visits places);
        ignore (Browser.Places_views.cold_download_referrers places);
        ignore (Browser.Places_views.cold_recent_visits ~now:(Browser.Places_views.now mv) places);
        ignore (Browser.Places_views.cold_place_visits places))
  in
  let next_id = ref (n_events + 1) in
  let batch = 256 in
  let upd_iters = if quick then 8 else 24 in
  let update_ns =
    time_per_op upd_iters batch (fun () ->
        for _ = 1 to batch do
          Browser.Places_views.ingest mv (mk !next_id);
          incr next_id
        done)
  in
  Relstore.Query_exec.clear_matview_sources ();
  [ ("matview-update", upd_iters * batch, update_ns); ("cold-rescan", rescan_iters, rescan_ns) ]

let run_matview measured =
  print_endline "== matview (incremental update vs cold rescan; ns/op) ==\n";
  Provkit_util.Table_fmt.print ~header:[ "path"; "ns/op" ]
    (List.map (fun (name, _, ns) -> [ name; Printf.sprintf "%.0f" ns ]) measured);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 1.8: statistics catalog — analyze cost and estimate accuracy    *)
(* ------------------------------------------------------------------ *)

(* Two concerns, three rows.  "stats-analyze" is the cost of a full
   ANALYZE pass over the dataset's biggest table, in honest ns/op.  The
   "estimate-error-*" pair reuses the ns_per_op field to carry a
   dimensionless max error ratio (>= 1.0, estimated vs actual rows,
   worse direction) over a fixed skewed workload — heuristic planner
   vs statistics-guided — so bench_smoke.sh can assert the catalog
   actually buys accuracy, and bench_compare.sh flags an estimator
   regression like any latency row. *)
let measure_stats () =
  let ds = Lazy.force dataset in
  let db = Core.Prov_schema.to_database (Harness.Dataset.store ds) in
  let nodes = Relstore.Database.table db "prov_node" in
  let analyze_iters = if quick then 5 else 20 in
  let analyze_ns =
    time_per_op analyze_iters 1 (fun () -> ignore (Relstore.Stats.analyze nodes))
  in
  Relstore.Stats.invalidate nodes;
  (* The skewed workload: an indexed Zipf column the histogram captures,
     a uniform non-indexed column the heuristic has no answer for. *)
  let rng = Provkit_util.Prng.create (seed + 8) in
  let z = Provkit_util.Zipf.create ~n:200 ~s:1.1 in
  let t =
    Relstore.Table.create
      (Relstore.Schema.make ~name:"bench_zipf"
         [
           Relstore.Column.make "rank" Relstore.Value.Tint;
           Relstore.Column.make "shard" Relstore.Value.Tint;
         ])
  in
  Relstore.Table.add_index t ~name:"by_rank" ~columns:[ "rank" ];
  for _ = 1 to 4_000 do
    ignore
      (Relstore.Table.insert_fields t
         [
           ("rank", Relstore.Value.Int (Provkit_util.Zipf.sample z rng));
           ("shard", Relstore.Value.Int (Provkit_util.Prng.int rng 16));
         ])
  done;
  let queries =
    Relstore.Predicate.
      [
        Eq ("rank", Relstore.Value.Int 0);
        Eq ("shard", Relstore.Value.Int 3);
        And [ Eq ("rank", Relstore.Value.Int 0); Eq ("shard", Relstore.Value.Int 3) ];
        Between ("rank", Relstore.Value.Int 0, Relstore.Value.Int 5);
      ]
  in
  let actual p =
    let schema = Relstore.Table.schema t in
    List.length
      (List.filter (fun (_, row) -> Relstore.Predicate.eval p schema row) (Relstore.Table.rows t))
  in
  let worst detail_of =
    List.fold_left
      (fun acc p ->
        let est = float_of_int (detail_of t p).Relstore.Query_exec.estimated_rows in
        let act = float_of_int (max 1 (actual p)) in
        Float.max acc (Float.max (Float.max 1.0 est /. act) (act /. Float.max 1.0 est)))
      1.0 queries
  in
  let heuristic_worst = worst Relstore.Query_exec.plan_detail_heuristic in
  ignore (Relstore.Stats.analyze t);
  let stats_worst = worst Relstore.Query_exec.plan_detail in
  Relstore.Stats.invalidate t;
  [
    ("stats-analyze", analyze_iters, analyze_ns);
    ("estimate-error-heuristic", List.length queries, heuristic_worst);
    ("estimate-error-stats", List.length queries, stats_worst);
  ]

let run_stats measured =
  print_endline "== statistics catalog (analyze ns/op; estimate max error ratio) ==\n";
  Provkit_util.Table_fmt.print ~header:[ "row"; "value" ]
    (List.map (fun (name, _, v) -> [ name; Printf.sprintf "%.1f" v ]) measured);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 1.9: provlint — full-tree analysis cost                         *)
(* ------------------------------------------------------------------ *)

(* The lint pass is part of every `dune runtest` (and of editor loops
   via `dune build @lint`), so its full-tree wall time is a developer-facing
   latency.  One row keeps it visible in the telemetry artifact: a
   parse-cache regression or an accidentally quadratic check shows up in
   bench_compare.sh like any other slowdown.  The tree is located the
   same way the lint integration test finds it (walk up from cwd); when
   the bench runs somewhere without sources, a 0 ns row keeps the
   artifact shape stable and bench_compare skips it. *)
let rec find_lint_root dir depth =
  if depth > 6 then None
  else if Sys.file_exists (Filename.concat dir "lib/obs/names.ml") then Some dir
  else find_lint_root (Filename.dirname dir) (depth + 1)

let measure_lint () =
  match find_lint_root (Sys.getcwd ()) 0 with
  | None -> [ ("lint-full-tree", 0, 0.0) ]
  | Some root ->
    let iters = if quick then 2 else 5 in
    let ns =
      time_per_op iters 1 (fun () -> ignore (Provkit_lint.Driver.lint_tree ~root ()))
    in
    [ ("lint-full-tree", iters, ns) ]

let run_lint measured =
  print_endline "== provlint (full lib/ + bin/ tree, all checks; ns/pass) ==\n";
  Provkit_util.Table_fmt.print ~header:[ "pass"; "ms/pass" ]
    (List.map (fun (name, _, ns) -> [ name; Printf.sprintf "%.1f" (ns /. 1e6) ]) measured);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 1.95: alert-rule evaluation cost                                *)
(* ------------------------------------------------------------------ *)

(* Rules evaluate on every pulse point, so their cost rides the ingest
   path (amortized by the pulse interval, but still).  The row is ns
   per rule per point over the full default catalog against synthetic
   healthy-looking snapshots — none of the rules fires, which is the
   steady-state the evaluator spends its life in. *)
let measure_alert () =
  Provkit_obs.Alert.reset ();
  List.iter Provkit_obs.Alert.register Provkit_obs.Alert.defaults;
  let n_rules = List.length Provkit_obs.Alert.defaults in
  let snap v =
    {
      Provkit_obs.Metrics.snap_counters =
        [
          (Provkit_obs.Names.capture_events, v);
          (Provkit_obs.Names.query_cache_hits, v);
          (Provkit_obs.Names.query_cache_misses, v / 2);
          (Provkit_obs.Names.stats_estimates, v);
          (Provkit_obs.Names.stats_misestimates, v / 25);
        ];
      snap_gauges =
        [
          (Provkit_obs.Names.wal_fsyncs_per_append, 1.0);
          (Provkit_obs.Names.matview_staleness, 3.0);
        ];
      snap_histograms =
        [
          ( Provkit_obs.Names.query_latency_ns,
            {
              Provkit_obs.Metrics.hs_count = v;
              hs_sum = 1e6;
              hs_min = 100;
              hs_max = 1_000_000;
              hs_p50 = 1e4;
              hs_p95 = 1e5;
              hs_p99 = 1e6;
            } );
        ];
    }
  in
  let older = { Provkit_obs.Timeseries.pt_ns = 0L; pt_snap = snap 1_000 } in
  let newer = { Provkit_obs.Timeseries.pt_ns = 1_000_000_000L; pt_snap = snap 2_000 } in
  let iters = if quick then 2_000 else 20_000 in
  let ns = time_per_op iters n_rules (fun () -> Provkit_obs.Alert.evaluate ~older ~newer) in
  Provkit_obs.Alert.reset ();
  [ ("alert-eval", iters, ns) ]

let run_alert measured =
  print_endline "== alert engine (default catalog; ns per rule per point) ==\n";
  Provkit_util.Table_fmt.print ~header:[ "row"; "ns/rule/point" ]
    (List.map (fun (name, _, ns) -> [ name; Printf.sprintf "%.1f" ns ]) measured);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 1.96: provd — concurrent ingest and snapshot-read latency       *)
(* ------------------------------------------------------------------ *)

(* The serving front-end's two acceptance numbers, from one real
   multi-domain run of the loadgen engine: wall-clock ns per ingested
   event across the whole fleet (queue + batch + matview + snapshot
   republish), and the p99 snapshot-read latency the read workers
   observed while ingest was running. *)
let measure_daemon () =
  let events = if quick then 150 else 600 in
  let cfg =
    {
      Daemon.Provd.default with
      Daemon.Provd.sessions = 4;
      events_per_session = events;
      seed;
    }
  in
  let r = Daemon.Provd.run cfg in
  let per_event =
    if r.Daemon.Provd.r_events > 0 then
      float_of_int r.Daemon.Provd.r_elapsed_ns /. float_of_int r.Daemon.Provd.r_events
    else 0.0
  in
  [
    ("daemon-ingest", r.Daemon.Provd.r_events, per_event);
    ("daemon-query-p99", r.Daemon.Provd.r_reads, float_of_int r.Daemon.Provd.r_read_p99_ns);
  ]

let run_daemon measured =
  print_endline "== provd (4-session fleet; ingest ns/event, read p99 ns) ==\n";
  Provkit_util.Table_fmt.print ~header:[ "row"; "ns" ]
    (List.map (fun (name, _, ns) -> [ name; Printf.sprintf "%.0f" ns ]) measured);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 1.97: strict-range planner — index path vs full scan            *)
(* ------------------------------------------------------------------ *)

(* The planner-bugfix acceptance pair: a strict `<` predicate over the
   same data and selectivity, once on an indexed column (the path the
   fix reopened — strict bounds used to fall back to scanning) and once
   on an unindexed copy of the column.  bench_smoke.sh gates the index
   side at >= 5x. *)
let measure_range () =
  let n_rows = if quick then 4_000 else 20_000 in
  let t =
    Relstore.Table.create
      (Relstore.Schema.make ~name:"bench_range"
         [
           Relstore.Column.make "day" Relstore.Value.Tint;
           Relstore.Column.make "day_raw" Relstore.Value.Tint;
         ])
  in
  Relstore.Table.add_index t ~name:"by_day" ~columns:[ "day" ];
  for i = 1 to n_rows do
    let d = i mod 100 in
    ignore
      (Relstore.Table.insert_fields t
         [ ("day", Relstore.Value.Int d); ("day_raw", Relstore.Value.Int d) ])
  done;
  let indexed = Relstore.Predicate.Cmp (Relstore.Predicate.Lt, "day", Relstore.Value.Int 3) in
  let scanned = Relstore.Predicate.Cmp (Relstore.Predicate.Lt, "day_raw", Relstore.Value.Int 3) in
  let iters = if quick then 100 else 400 in
  Relstore.Query_exec.set_cache_enabled false;
  let scan_ns =
    time_per_op iters 1 (fun () -> ignore (Relstore.Query_exec.select ~where:scanned t))
  in
  let index_ns =
    time_per_op iters 1 (fun () -> ignore (Relstore.Query_exec.select ~where:indexed t))
  in
  Relstore.Query_exec.set_cache_enabled true;
  [ ("range-strict-full-scan", iters, scan_ns); ("range-strict-index", iters, index_ns) ]

let run_range measured =
  print_endline "== strict-range planner (same selectivity; ns/query) ==\n";
  Provkit_util.Table_fmt.print ~header:[ "path"; "ns/query" ]
    (List.map (fun (name, _, ns) -> [ name; Printf.sprintf "%.0f" ns ]) measured);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 1.98: provd publish — snapshot cost against image size          *)
(* ------------------------------------------------------------------ *)

(* provd publishes [Database.snapshot] of its live relational image.
   The pair times it on images of ~1k and ~100k rows, folded from a
   synthetic visit stream; O(tables + indexes) publishing keeps the two
   within 2x of each other, where the export it replaced grew with the
   history. *)
let measure_snapshot () =
  let image_of ~rows =
    let image = Core.Prov_schema.image () in
    let store = Core.Prov_store.create () in
    Core.Prov_store.set_observer store (Core.Prov_schema.apply image);
    let db = Core.Prov_schema.database image in
    let total () =
      List.fold_left (fun acc t -> acc + Relstore.Table.row_count t) 0 (Relstore.Database.tables db)
    in
    let prev = ref None in
    let i = ref 0 in
    while total () < rows do
      incr i;
      let visit =
        Core.Prov_store.add_visit store ~engine_visit:!i
          ~url:(Printf.sprintf "https://bench.example/%d" (!i mod 500))
          ~title:"bench" ~transition:Browser.Transition.Link ~tab:1 ~time:!i
      in
      Option.iter
        (fun src -> Core.Prov_store.add_edge store ~src ~dst:visit Core.Prov_edge.Link_traversal ~time:!i)
        !prev;
      prev := Some visit
    done;
    db
  in
  let iters = if quick then 20_000 else 100_000 in
  List.map
    (fun (name, rows) ->
      let db = image_of ~rows in
      (name, iters, time_per_op iters 1 (fun () -> ignore (Relstore.Database.snapshot db))))
    [ ("snapshot-publish-1k", 1_000); ("snapshot-publish-100k", 100_000) ]

let run_snapshot measured =
  print_endline "== provd publish (Database.snapshot of the live image; ns/publish) ==\n";
  Provkit_util.Table_fmt.print ~header:[ "image"; "ns/publish" ]
    (List.map (fun (name, _, ns) -> [ name; Printf.sprintf "%.0f" ns ]) measured);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2: experiment tables                                            *)
(* ------------------------------------------------------------------ *)

let run_experiments () =
  print_endline "== paper experiment tables (E1..E16) ==";
  List.iter Harness.Report.print (Harness.Experiments.run_all ~quick ~seed ())

(* ------------------------------------------------------------------ *)
(* Part 3: the BENCH_<date>.json telemetry artifact                     *)
(* ------------------------------------------------------------------ *)

(* Schema "provkit-bench/1".  Every entry of "rows" and "obs_overhead"
   is one JSON object on its own line, so tools/bench_compare.sh can
   diff two artifacts with grep/awk alone:

   { "schema": "provkit-bench/1", "date": "YYYY-MM-DD", "seed": N,
     "quick": bool, "dataset": {"days":N,"nodes":N,"edges":N},
     "rows": [ {"name":"...","iters":N,"ns_per_op":X}, ... ],
     "obs_overhead": [ {"name":"...","off_ns":X,"on_ns":X,"delta_pct":X}, ... ] }

   The default path is BENCH_<iso-date>.json in the working directory;
   BENCH_OUT overrides it (the smoke alias points it at a temp dir). *)

(* Bechamel's OLS estimate can be nan when a run has too few samples
   (quick mode on a loaded machine); 0 keeps the artifact parseable and
   makes bench_compare.sh skip the row rather than divide by nan. *)
let json_num f = if Float.is_nan f then "0" else Printf.sprintf "%.3f" f

let iso_date () =
  let tm = Unix.localtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday

let write_artifact ~micro ~hot ~matview ~stats ~lint ~alert ~daemon ~range ~snapshot ~overhead =
  let ds = Lazy.force dataset in
  let path =
    match Sys.getenv_opt "BENCH_OUT" with
    | Some p -> p
    | None -> Printf.sprintf "BENCH_%s.json" (iso_date ())
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "{ \"schema\": \"provkit-bench/1\", \"date\": \"%s\", \"seed\": %d, \"quick\": %b,\n"
       (iso_date ()) seed quick);
  Buffer.add_string buf
    (Printf.sprintf "  \"dataset\": {\"days\":%d,\"nodes\":%d,\"edges\":%d},\n"
       ds.Harness.Dataset.trace.Browser.User_model.span_days
       (Core.Prov_store.node_count (Harness.Dataset.store ds))
       (Core.Prov_store.edge_count (Harness.Dataset.store ds)));
  Buffer.add_string buf "  \"rows\": [\n";
  let all_rows =
    List.map (fun (name, ns) -> (name, micro_iters, ns)) micro
    @ hot @ matview @ stats @ lint @ alert @ daemon @ range @ snapshot
  in
  List.iteri
    (fun i (name, iters, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\":\"%s\",\"iters\":%d,\"ns_per_op\":%s}%s\n"
           (Provkit_obs.Metrics.json_escape name)
           iters (json_num ns)
           (if i + 1 < List.length all_rows then "," else "")))
    all_rows;
  Buffer.add_string buf "  ],\n  \"obs_overhead\": [\n";
  List.iteri
    (fun i (name, off_ns, on_ns) ->
      let delta = if off_ns > 0.0 then 100.0 *. ((on_ns /. off_ns) -. 1.0) else 0.0 in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\":\"%s\",\"off_ns\":%s,\"on_ns\":%s,\"delta_pct\":%.1f}%s\n"
           (Provkit_obs.Metrics.json_escape name)
           (json_num off_ns) (json_num on_ns) delta
           (if i + 1 < List.length overhead then "," else "")))
    overhead;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.eprintf "bench telemetry -> %s\n" path

let () =
  let json_mode = Array.exists (String.equal "--json") Sys.argv in
  Printf.printf "browser-provenance bench harness (seed %d%s)\n\n" seed
    (if quick then ", quick mode" else "");
  (* Building the dataset first keeps its cost out of the micro runs. *)
  let ds = Lazy.force dataset in
  Printf.printf "dataset: %d days, %d provenance nodes, %d edges\n\n"
    ds.Harness.Dataset.trace.Browser.User_model.span_days
    (Core.Prov_store.node_count (Harness.Dataset.store ds))
    (Core.Prov_store.edge_count (Harness.Dataset.store ds));
  let micro = measure_micro () in
  run_micro micro;
  let hot = measure_hot_paths () in
  run_hot_paths hot;
  let matview = measure_matview () in
  run_matview matview;
  let stats = measure_stats () in
  run_stats stats;
  let lint = measure_lint () in
  run_lint lint;
  let alert = measure_alert () in
  run_alert alert;
  let daemon = measure_daemon () in
  run_daemon daemon;
  let range = measure_range () in
  run_range range;
  let snapshot = measure_snapshot () in
  run_snapshot snapshot;
  let overhead = measure_obs_overhead () in
  run_obs_overhead overhead;
  if json_mode then
    write_artifact ~micro ~hot ~matview ~stats ~lint ~alert ~daemon ~range ~snapshot ~overhead
  else run_experiments ()
