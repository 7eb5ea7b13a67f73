(* Compatibility with committed files: every on-disk and JSONL format
   the tree has shipped still decodes to the values in Compat_values,
   and today's writers reproduce the current formats byte for byte.
   The files under data/ were written before the frame code moved into
   Provkit_util, so these tests pin the formats across that move. *)

module V = Compat_values
module PL = Core.Prov_log
module EC = Browser.Event_codec
module TL = Provkit_obs.Telemetry_log
module Trace = Provkit_obs.Trace
module Slowlog = Relstore.Slowlog
module F = Provkit_util.Frame

let data = Core_fixtures.data_path
let read path = In_channel.with_open_bin path In_channel.input_all
let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)

let test_prov_log () =
  List.iter
    (fun (file, version) ->
      let image = read (data file) in
      Alcotest.(check (option int)) (file ^ " version") (Some version) (PL.format_version image);
      let p = PL.read_prefix image in
      Alcotest.(check bool) (file ^ " clean") true p.F.clean;
      Alcotest.(check bool) (file ^ " ops") true (p.F.records = V.ops))
    [ ("provlog1.bin", 1); ("provlog2.bin", 2) ];
  let j = PL.create () in
  List.iter (PL.append j) V.ops;
  Alcotest.(check string) "v2 writer" (read (data "provlog2.bin")) (PL.to_bytes j);
  Alcotest.(check string) "v1 writer" (read (data "provlog1.bin")) (PL.to_bytes_v1 j)

let test_wal () =
  let dir = data "wal" in
  let segment = read (Filename.concat dir "segment-000000.log") in
  Alcotest.(check bool) "segment ops" true ((PL.read_prefix segment).F.records = V.ops);
  let rc = PL.Segmented.recover ~dir () in
  Alcotest.(check bool) "recovery clean" false rc.PL.Segmented.truncated;
  Alcotest.(check int) "ops applied" (List.length V.ops) rc.PL.Segmented.ops_applied;
  Alcotest.(check bool) "recovered store" true
    (PL.ops_of_store rc.PL.Segmented.store = PL.ops_of_store (PL.replay (PL.of_bytes segment)));
  (match PL.Segmented.manifest_check ~dir () with
  | Provkit_obs.Health.Ok, msg ->
    Alcotest.(check string) "manifest" "generation 0, 1 segment(s)" msg
  | _, msg -> Alcotest.failf "manifest rejected: %s" msg);
  Test_wal.with_temp_dir @@ fun tmp ->
  let h = PL.Segmented.open_ tmp in
  List.iter (PL.Segmented.append h) V.ops;
  PL.Segmented.close h;
  List.iter
    (fun file ->
      Alcotest.(check string) (file ^ " writer") (read (Filename.concat dir file))
        (read (Filename.concat tmp file)))
    [ "segment-000000.log"; "MANIFEST" ]

let test_event_codec () =
  List.iter
    (fun (file, version) ->
      let image = read (data file) in
      Alcotest.(check (option int)) (file ^ " version") (Some version) (EC.format_version image);
      let p = EC.read_prefix image in
      Alcotest.(check bool) (file ^ " clean") true p.F.clean;
      Alcotest.(check bool) (file ^ " events") true (p.F.records = V.events))
    [ ("browsevt1.bin", 1); ("browsevt2.bin", 2) ];
  Alcotest.(check string) "v2 writer" (read (data "browsevt2.bin")) (EC.to_bytes V.events);
  Alcotest.(check string) "v1 writer" (read (data "browsevt1.bin")) (EC.to_bytes_v1 V.events)

let test_telemetry_journal () =
  let rp = TL.replay ~path:(data "telemetry.ptj") in
  Alcotest.(check bool) "clean" false rp.TL.rp_truncated;
  Alcotest.(check int) "records" 3 rp.TL.rp_records;
  Alcotest.(check bool) "points" true (rp.TL.rp_points = V.points);
  Alcotest.(check bool) "transitions" true (rp.TL.rp_transitions = V.transitions);
  Test_wal.with_temp_dir @@ fun tmp ->
  let path = Filename.concat tmp "telemetry.ptj" in
  let t = TL.open_ ~path in
  List.iter
    (function `Point p -> TL.append_point t p | `Transition tr -> TL.append_transition t tr)
    V.journal_records;
  TL.close t;
  Alcotest.(check string) "PTJ1 writer" (read (data "telemetry.ptj")) (read path)

let test_slowlog_jsonl () =
  let file = read (data "slowlog.jsonl") in
  Alcotest.(check bool) "entries" true (Slowlog.load_jsonl file = V.slow_entries);
  Alcotest.(check string) "writer" file
    (String.concat "" (List.map (fun e -> Slowlog.to_json e ^ "\n") V.slow_entries))

let test_span_jsonl () =
  Alcotest.(check bool) "v1 line" true
    (List.map Trace.span_of_json (lines (read (data "spans_v1.jsonl"))) = [ Some V.span_v1 ]);
  let file = read (data "spans_v2.jsonl") in
  Alcotest.(check bool) "v2 lines" true
    (List.map Trace.span_of_json (lines file) = List.map Option.some V.spans_v2);
  Alcotest.(check string) "v2 writer" file
    (String.concat "" (List.map (fun s -> Trace.span_to_json s ^ "\n") V.spans_v2))

let suite =
  [
    Alcotest.test_case "PROVLOG1/PROVLOG2 journals" `Quick test_prov_log;
    Alcotest.test_case "WAL segment and PROVMAN1 manifest" `Quick test_wal;
    Alcotest.test_case "BROWSEVT1/BROWSEVT2 traces" `Quick test_event_codec;
    Alcotest.test_case "PTJ1 telemetry journal" `Quick test_telemetry_journal;
    Alcotest.test_case "slow-log JSONL" `Quick test_slowlog_jsonl;
    Alcotest.test_case "span JSONL v1 and v2" `Quick test_span_jsonl;
  ]
