(* Slow-query log tests: fingerprint dedup, capacity eviction, JSONL
   round-trips, and the executor integration that feeds it.  The log is
   process-global, so every test clears it up front and restores the
   threshold/capacity knobs it touches. *)

module R = Relstore
module Slowlog = Relstore.Slowlog
module Metrics = Provkit_obs.Metrics
module Names = Provkit_obs.Names

let with_slowlog ?(threshold = 1_000_000) f =
  let saved_threshold = Slowlog.threshold_ns () in
  let saved_enabled = Metrics.enabled () in
  Slowlog.clear ();
  Slowlog.set_threshold_ns threshold;
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Slowlog.clear ();
      Slowlog.set_threshold_ns saved_threshold;
      Metrics.set_enabled saved_enabled)
    f

let length () = List.length (Slowlog.entries ())

let note_nth ?(elapsed = 2_000_000) n =
  Slowlog.note ~table:"t" ~op:"select"
    ~plan:(Printf.sprintf "plan%d" n)
    ~detail:"d" ~elapsed_ns:elapsed ~rows_scanned:10 ~rows_returned:1

let test_dedup_merges () =
  with_slowlog @@ fun () ->
  let notes_before = Metrics.counter_value Names.slowlog_notes in
  let note elapsed =
    Slowlog.note ~table:"events" ~op:"select" ~plan:"full_scan"
      ~detail:"Eq(kind, 3)" ~elapsed_ns:elapsed ~rows_scanned:100 ~rows_returned:7
  in
  note 2_000_000;
  note 5_000_000;
  note 3_000_000;
  Alcotest.check Alcotest.int "one entry" 1 (length ());
  let e = List.hd (Slowlog.entries ()) in
  Alcotest.check Alcotest.int "count merged" 3 e.Slowlog.e_count;
  Alcotest.check Alcotest.int "total accumulates" 10_000_000 e.Slowlog.e_total_ns;
  Alcotest.check Alcotest.int "max kept" 5_000_000 e.Slowlog.e_max_ns;
  Alcotest.check Alcotest.int "last latency" 3_000_000 e.Slowlog.e_last_ns;
  Alcotest.check Alcotest.int "fingerprint stable"
    (Slowlog.fingerprint ~table:"events" ~op:"select" ~plan:"full_scan"
       ~detail:"Eq(kind, 3)")
    e.Slowlog.e_fingerprint;
  Alcotest.check Alcotest.int "notes counter ticks" (notes_before + 3)
    (Metrics.counter_value Names.slowlog_notes)

let test_distinct_fingerprints () =
  with_slowlog @@ fun () ->
  Slowlog.note ~table:"a" ~op:"select" ~plan:"full_scan" ~detail:"d"
    ~elapsed_ns:1_000_000 ~rows_scanned:1 ~rows_returned:1;
  Slowlog.note ~table:"a" ~op:"count" ~plan:"full_scan" ~detail:"d"
    ~elapsed_ns:9_000_000 ~rows_scanned:1 ~rows_returned:1;
  Slowlog.note ~table:"b" ~op:"select" ~plan:"full_scan" ~detail:"d"
    ~elapsed_ns:4_000_000 ~rows_scanned:1 ~rows_returned:1;
  Alcotest.check Alcotest.int "three entries" 3 (length ());
  (* entries () orders worst-first by accumulated time *)
  let ops = List.map (fun e -> e.Slowlog.e_op) (Slowlog.entries ()) in
  Alcotest.(check (list string)) "worst first" [ "count"; "select"; "select" ] ops

(* The log keeps 128 distinct fingerprints. *)
let test_capacity_eviction () =
  with_slowlog @@ fun () ->
  let evictions_before = Metrics.counter_value Names.slowlog_evictions in
  for i = 1 to 131 do
    note_nth i
  done;
  Alcotest.check Alcotest.int "bounded at capacity" 128 (length ());
  Alcotest.check Alcotest.int "evictions ticked" (evictions_before + 3)
    (Metrics.counter_value Names.slowlog_evictions);
  (* Oldest-last-seen go first: plans 1-3 evicted, 4-131 retained. *)
  let plans = List.map (fun e -> e.Slowlog.e_plan) (Slowlog.entries ()) in
  Alcotest.(check (list bool)) "oldest evicted, newest retained"
    [ false; false; false; true; true ]
    (List.map (fun p -> List.mem p plans) [ "plan1"; "plan2"; "plan3"; "plan4"; "plan131" ])

let test_json_round_trip () =
  with_slowlog @@ fun () ->
  Slowlog.note ~table:"events" ~op:"group_count" ~plan:"index_eq"
    ~detail:"And(Eq(kind, 1), Like(url, \"mail\"))" ~elapsed_ns:7_654_321
    ~rows_scanned:4242 ~rows_returned:17;
  Slowlog.note ~table:"events" ~op:"group_count" ~plan:"index_eq"
    ~detail:"And(Eq(kind, 1), Like(url, \"mail\"))" ~elapsed_ns:1_234_567
    ~rows_scanned:4242 ~rows_returned:17;
  let e = List.hd (Slowlog.entries ()) in
  match Slowlog.of_json (Slowlog.to_json e) with
  | None -> Alcotest.fail "round-trip parse failed"
  | Some e' ->
      Alcotest.check Alcotest.int "fingerprint" e.Slowlog.e_fingerprint
        e'.Slowlog.e_fingerprint;
      Alcotest.check Alcotest.string "table" e.Slowlog.e_table e'.Slowlog.e_table;
      Alcotest.check Alcotest.string "op" e.Slowlog.e_op e'.Slowlog.e_op;
      Alcotest.check Alcotest.string "plan" e.Slowlog.e_plan e'.Slowlog.e_plan;
      Alcotest.check Alcotest.string "detail survives escaping" e.Slowlog.e_detail
        e'.Slowlog.e_detail;
      Alcotest.check Alcotest.int "count" e.Slowlog.e_count e'.Slowlog.e_count;
      Alcotest.check Alcotest.int "total_ns" e.Slowlog.e_total_ns e'.Slowlog.e_total_ns;
      Alcotest.check Alcotest.int "max_ns" e.Slowlog.e_max_ns e'.Slowlog.e_max_ns;
      Alcotest.check Alcotest.int "last_ns" e.Slowlog.e_last_ns e'.Slowlog.e_last_ns;
      Alcotest.check Alcotest.int "rows_scanned" e.Slowlog.e_rows_scanned
        e'.Slowlog.e_rows_scanned;
      Alcotest.check Alcotest.int "rows_returned" e.Slowlog.e_rows_returned
        e'.Slowlog.e_rows_returned

let test_jsonl_dump_load () =
  with_slowlog @@ fun () ->
  for i = 1 to 5 do
    note_nth ~elapsed:(i * 1_000_000) i
  done;
  let buf = Buffer.create 256 in
  Slowlog.dump_jsonl buf;
  let loaded = Slowlog.load_jsonl (Buffer.contents buf) in
  Alcotest.check Alcotest.int "all lines parsed" 5 (List.length loaded);
  let originals = Slowlog.entries () in
  List.iter2
    (fun (a : Slowlog.entry) (b : Slowlog.entry) ->
      Alcotest.check Alcotest.int "same order, same entry" a.Slowlog.e_fingerprint
        b.Slowlog.e_fingerprint)
    originals loaded

let test_malformed_json () =
  (match Slowlog.of_json "not json at all" with
  | None -> ()
  | Some _ -> Alcotest.fail "garbage accepted");
  (match Slowlog.of_json "{\"table\":\"t\"}" with
  | None -> ()
  | Some _ -> Alcotest.fail "missing fields accepted");
  let mixed =
    "garbage line\n"
    ^ "{\"half\": }\n"
  in
  Alcotest.check Alcotest.int "malformed lines skipped" 0
    (List.length (Slowlog.load_jsonl mixed))

let test_invalid_knobs () =
  Alcotest.check_raises "negative threshold"
    (Invalid_argument "Slowlog.set_threshold_ns: must be non-negative") (fun () ->
      Slowlog.set_threshold_ns (-1));
  Alcotest.check_raises "threshold above the 1-hour ceiling"
    (Invalid_argument
       "Slowlog.set_threshold_ns: above the 1-hour ceiling (expected nanoseconds)")
    (fun () -> Slowlog.set_threshold_ns (Slowlog.max_threshold_ns + 1))

let test_threshold_env_parsing () =
  (* The PROV_SLOWLOG_NS parser is lenient by design: a bad value must
     leave the default in place, never take the process down. *)
  let check_parse name input expect =
    Alcotest.(check (option int)) name expect (Slowlog.threshold_of_env_string input)
  in
  check_parse "plain number" "250000" (Some 250_000);
  check_parse "zero allowed (log everything)" "0" (Some 0);
  check_parse "surrounding whitespace trimmed" "  42000\n" (Some 42_000);
  check_parse "ceiling value accepted" (string_of_int Slowlog.max_threshold_ns)
    (Some Slowlog.max_threshold_ns);
  check_parse "negative rejected" "-1" None;
  check_parse "above ceiling rejected" (string_of_int (Slowlog.max_threshold_ns + 1)) None;
  check_parse "garbage rejected" "fast" None;
  check_parse "float rejected" "1.5e6" None;
  check_parse "empty rejected" "" None

let test_executor_feeds_log () =
  with_slowlog ~threshold:0 @@ fun () ->
  let t = R.Table.create (R.Schema.make ~name:"items" [ R.Column.make "qty" R.Value.Tint ]) in
  for i = 1 to 20 do
    ignore (R.Table.insert_fields t [ ("qty", R.Value.Int (i mod 4)) ])
  done;
  let where = R.Predicate.Eq ("qty", R.Value.Int 1) in
  (* *_stats bypasses the result cache, so each run truly executes. *)
  ignore (R.Query_exec.(select_at Stats) ~where t);
  ignore (R.Query_exec.(select_at Stats) ~where t);
  let e =
    match
      List.find_opt
        (fun e -> String.equal e.Slowlog.e_table "items" && String.equal e.Slowlog.e_op "select")
        (Slowlog.entries ())
    with
    | Some e -> e
    | None -> Alcotest.fail "executor did not note the query"
  in
  Alcotest.check Alcotest.int "identical queries dedup" 2 e.Slowlog.e_count;
  Alcotest.check Alcotest.string "plan recorded" "full_scan" e.Slowlog.e_plan;
  Alcotest.check Alcotest.int "rows returned recorded" 5 e.Slowlog.e_rows_returned;
  (* The predicate shape is part of the fingerprint: a different filter
     lands in a different entry. *)
  ignore (R.Query_exec.(select_at Stats) ~where:(R.Predicate.Eq ("qty", R.Value.Int 2)) t);
  let selects =
    List.filter (fun e -> String.equal e.Slowlog.e_table "items") (Slowlog.entries ())
  in
  Alcotest.check Alcotest.int "distinct predicate, distinct entry" 2
    (List.length selects)

let test_threshold_filters () =
  with_slowlog ~threshold:Slowlog.max_threshold_ns @@ fun () ->
  let t = R.Table.create (R.Schema.make ~name:"items" [ R.Column.make "qty" R.Value.Tint ]) in
  ignore (R.Table.insert_fields t [ ("qty", R.Value.Int 1) ]);
  ignore (R.Query_exec.(select_at Stats) t);
  Alcotest.check Alcotest.int "fast queries not noted" 0 (length ())

(* Metrics.json_escape writes every control byte as \u00XX; the
   reader must turn each one back into its byte. *)
let test_control_bytes_round_trip () =
  with_slowlog @@ fun () ->
  for c = 0 to 0x1f do
    Slowlog.note ~table:"t" ~op:"select" ~plan:"full_scan"
      ~detail:(Printf.sprintf "a%cb%c" (Char.chr c) (Char.chr c))
      ~elapsed_ns:2_000_000 ~rows_scanned:1 ~rows_returned:1
  done;
  let buf = Buffer.create 4096 in
  Slowlog.dump_jsonl buf;
  let details es = List.sort compare (List.map (fun e -> e.Slowlog.e_detail) es) in
  Alcotest.(check (list string)) "every byte 0x00-0x1f survives load_jsonl"
    (details (Slowlog.entries ()))
    (details (Slowlog.load_jsonl (Buffer.contents buf)));
  Alcotest.(check int) "all 32 entries" 32 (List.length (Slowlog.load_jsonl (Buffer.contents buf)))

let suite =
  [
    Alcotest.test_case "control bytes round-trip through jsonl" `Quick
      test_control_bytes_round_trip;
    Alcotest.test_case "dedup merges by fingerprint" `Quick test_dedup_merges;
    Alcotest.test_case "distinct fingerprints, worst first" `Quick
      test_distinct_fingerprints;
    Alcotest.test_case "capacity evicts oldest-last-seen" `Quick test_capacity_eviction;
    Alcotest.test_case "to_json/of_json round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "dump/load jsonl round-trip" `Quick test_jsonl_dump_load;
    Alcotest.test_case "malformed json rejected" `Quick test_malformed_json;
    Alcotest.test_case "invalid knobs rejected" `Quick test_invalid_knobs;
    Alcotest.test_case "PROV_SLOWLOG_NS parsing" `Quick test_threshold_env_parsing;
    Alcotest.test_case "executor feeds the log" `Quick test_executor_feeds_log;
    Alcotest.test_case "threshold filters fast queries" `Quick test_threshold_filters;
  ]
