(* The values behind the committed compatibility fixtures in test/data/.
   Each fixture file was written from these values by the writers of
   the time; test_compat checks that every file still decodes to them
   and that today's writers reproduce the framed and JSONL files byte
   for byte.  Changing a value here means regenerating a fixture, which
   defeats the point: add new values instead. *)

module PN = Core.Prov_node
module PE = Core.Prov_edge
module Ev = Browser.Event

let node ?time ?close_time id kind = PN.{ id; kind; time; close_time }

(* One op of every shape, every node kind, signed and optional fields,
   and a string with bytes outside ASCII. *)
let ops : Core.Prov_log.op list =
  [
    Add_node (node 0 (PN.Page { url = "http://example.org/"; title = "Example" }));
    Add_node
      (node ~time:1000 1
         (PN.Visit
            { url = "http://example.org/"; title = "Example";
              transition = Browser.Transition.Typed; tab = 1 }));
    Add_edge { src = 0; dst = 1; edge = { PE.kind = PE.Instance; time = 1000 } };
    Add_node (node ~time:1010 2 (PN.Search_term { query = "rosebud sled \xc3\xa9t\xc3\xa9" }));
    Add_edge { src = 2; dst = 1; edge = { PE.kind = PE.Search_query; time = 1010 } };
    Add_node (node ~time:1020 3 (PN.Bookmark { title = "Ex"; url = "http://example.org/" }));
    Add_node
      (node ~time:1030 ~close_time:1031 4
         (PN.Download { source_url = "http://example.org/f.pdf"; target_path = "/home/u/f.pdf" }));
    Add_node (node ~time:(-5) 5 (PN.Form_submission { fields = [ ("q", "x"); ("lang", "en") ] }));
    Add_edge { src = 1; dst = 5; edge = { PE.kind = PE.Form_source; time = -3 } };
    Close_node { id = 1; time = 1100 };
  ]

let url = Webmodel.Url.of_string

let events : Ev.t list =
  [
    Ev.Visit
      {
        Ev.visit_id = 1; time = 1000; tab = 1; page = Some 7; url = url "http://example.org/a";
        title = "A"; transition = Browser.Transition.Link; referrer = None; via_bookmark = None;
      };
    Ev.Tab_opened { time = 1001; tab = 2; opener_tab = Some 1 };
    Ev.Search { time = 1002; search_id = 3; query = "rosebud"; serp_visit = 2 };
    Ev.Visit
      {
        Ev.visit_id = 2; time = 1003; tab = 2; page = None; url = url "http://search.example/q";
        title = "Results"; transition = Browser.Transition.Form_submit; referrer = Some 1;
        via_bookmark = None;
      };
    Ev.Bookmark_added
      { time = 1004; bookmark_id = 4; visit_id = 1; url = url "http://example.org/a"; title = "A" };
    Ev.Download_started
      {
        time = 1005; download_id = 5; visit_id = 6; source_visit = 1;
        url = url "http://example.org/f.pdf"; target_path = "/tmp/f.pdf";
      };
    Ev.Form_submitted
      { time = 1006; form_id = 7; source_visit = 1; result_visit = 2; fields = [ ("k", "v") ] };
    Ev.Close { time = 1007; tab = 1; visit_id = 1 };
    Ev.Tab_closed { time = 1008; tab = 2 };
  ]

module M = Provkit_obs.Metrics
module TS = Provkit_obs.Timeseries
module A = Provkit_obs.Alert

let points : TS.point list =
  [
    {
      TS.pt_ns = 123_000L;
      pt_snap =
        {
          M.snap_counters = [ ("prov.compat.counter", 3) ];
          snap_gauges = [ ("prov.compat.gauge", 1.5) ];
          snap_histograms =
            [
              ( "prov.compat.hist",
                { M.hs_count = 2; hs_sum = 3.0; hs_min = 1; hs_max = 2; hs_p50 = 1.0;
                  hs_p95 = 2.0; hs_p99 = 2.0 } );
            ];
        };
    };
    {
      TS.pt_ns = 789_000L;
      pt_snap = { M.snap_counters = [ ("prov.compat.counter", 9) ]; snap_gauges = [];
                  snap_histograms = [] };
    };
  ]

let transitions : A.transition list =
  [
    { A.tr_seq = 1; tr_rule = "alert.compat.rule"; tr_kind = A.Fire; tr_ns = 456_000L;
      tr_value = 9.5; tr_severity = A.Warning };
  ]

(* The journal's record order: point, transition, point. *)
let journal_records =
  [ `Point (List.nth points 0); `Transition (List.nth transitions 0); `Point (List.nth points 1) ]

let slow_entries : Relstore.Slowlog.entry list =
  let entry fp table op plan detail count total =
    {
      Relstore.Slowlog.e_fingerprint = fp; e_table = table; e_op = op; e_plan = plan;
      e_detail = detail; e_count = count; e_total_ns = total; e_max_ns = total / count;
      e_last_ns = 1_500_000; e_rows_scanned = 400; e_rows_returned = 3;
      e_first_ns = 10_000L; e_last_ns_seen = 20_000L;
    }
  in
  [
    entry 12345 "prov_node" "select" "full-scan" "kind = \"visit\"\x01\x0c" 2 5_000_000;
    entry 678 "prov_edge" "count" "index-range" "time < 5\ttab" 1 1_200_000;
  ]

(* A span line as the first tracer wrote it: no "v" marker, no ids. *)
let span_v1_line = {|{"name":"capture.event","start_ns":100,"dur_ns":20,"attrs":{"kind":"visit"}}|}

let span_v1 : Provkit_obs.Trace.span =
  {
    name = "capture.event"; attrs = [ ("kind", "visit") ]; start_ns = 100L; dur_ns = 20L;
    trace_id = 0L; span_id = 0L; parent_id = None;
  }

let spans_v2 : Provkit_obs.Trace.span list =
  [
    {
      name = "wal.flush"; attrs = [ ("ops", "3"); ("ctl", "a\x0cb\x01") ]; start_ns = 10L;
      dur_ns = 5L; trace_id = 0xabcL; span_id = 0x1fL; parent_id = Some 0xeL;
    };
    {
      name = "daemon.batch"; attrs = []; start_ns = 8L; dur_ns = 9L; trace_id = 0xabcL;
      span_id = 0xeL; parent_id = None;
    };
  ]
