(* Aggregated test runner: one suite per module area, run with
   `dune runtest`. *)

let () =
  Alcotest.run "browser_provenance"
    [
      ("util.prng", Test_prng.suite);
      ("util.stats", Test_stats.suite);
      ("util.strutil", Test_strutil.suite);
      ("util.zipf", Test_zipf.suite);
      ("util.table_fmt", Test_table_fmt.suite);
      ("util.crc32", Test_crc32.suite);
      ("obs.metrics", Test_obs.suite);
      ("obs.hyperloglog", Test_hll.suite);
      ("obs.timeseries", Test_timeseries.suite);
      ("obs.alert", Test_alert.suite);
      ("obs.health", Test_health.suite);
      ("obs.telemetry_log", Test_telemetry_log.suite);
      ("obs.integration", Test_obs_integration.suite);
      ("util.faulty_io", Test_faulty_io.suite);
      ("relstore.codec", Test_relstore_codec.suite);
      ("relstore.codec_properties", Test_codec_properties.suite);
      ("relstore.table", Test_relstore_table.suite);
      ("relstore.query", Test_relstore_query.suite);
      ("relstore.query_cache", Test_query_cache.suite);
      ("relstore.model", Test_relstore_model.suite);
      ("relstore.matview", Test_matview.suite);
      ("relstore.sql", Test_relstore_sql.suite);
      ("relstore.query_plan", Test_query_plan.suite);
      ("relstore.planner_regression", Test_planner_regression.suite);
      ("relstore.pipeline", Test_pipeline.suite);
      ("relstore.profile", Test_profile.suite);
      ("relstore.stats_catalog", Test_stats_catalog.suite);
      ("relstore.slowlog", Test_slowlog.suite);
      ("relstore.corruption", Test_corruption.suite);
      ("textindex", Test_textindex.suite);
      ("graph.digraph", Test_digraph.suite);
      ("graph.algorithms", Test_graph_algorithms.suite);
      ("webmodel", Test_webmodel.suite);
      ("browser", Test_browser.suite);
      ("browser.places_queries", Test_places_queries.suite);
      ("browser.event_codec", Test_event_codec.suite);
      ("core.store", Test_core_store.suite);
      ("core.history_facts", Test_history_facts.suite);
      ("core.capture", Test_core_capture.suite);
      ("core.schema", Test_core_schema.suite);
      ("core.queries", Test_core_queries.suite);
      ("core.extensions", Test_core_extensions.suite);
      ("core.prov_log", Test_prov_log.suite);
      ("core.wal", Test_wal.suite);
      ("core.suggest", Test_suggest.suite);
      ("core.sessions_dot", Test_sessions_dot.suite);
      ("core.retention", Test_retention.suite);
      ("daemon", Test_daemon.suite);
      ("harness", Test_harness.suite);
      ("lint", Test_provlint.suite);
      ("lint.callgraph", Test_callgraph.suite);
      ("lint.dataflow", Test_dataflow.suite);
    ]
