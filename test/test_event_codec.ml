(* Event-stream persistence: codec round trips and replay equivalence. *)

module F = Core_fixtures
module Engine = Browser.Engine
module Event = Browser.Event
module EC = Browser.Event_codec

let recorded_events seed =
  let _web, engine, _api, _trace = F.simulated ~seed ~days:1 () in
  Engine.event_log engine

let test_roundtrip_real_stream () =
  let events = recorded_events 81 in
  Alcotest.(check bool) "non-trivial stream" true (List.length events > 200);
  let decoded = EC.of_bytes (EC.to_bytes events) in
  Alcotest.(check int) "count preserved" (List.length events) (List.length decoded);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "event preserved" (Event.describe a) (Event.describe b);
      Alcotest.(check int) "time preserved" (Event.time a) (Event.time b))
    events decoded

let test_replay_rebuilds_equivalent_stores () =
  let events = recorded_events 82 in
  (* Feed the recorded stream to a fresh Places store and a fresh
     provenance capture; both must equal the live ones. *)
  let places = Browser.Places_db.create () in
  let capture, feed_capture = Core.Capture.observer () in
  EC.replay events [ Browser.Places_db.apply_event places; feed_capture ];
  let store = Core.Capture.store capture in
  Alcotest.(check bool) "visits rebuilt" true (Browser.Places_db.visit_count places > 40);
  Alcotest.(check bool) "provenance rebuilt" true (Core.Prov_store.node_count store > 40);
  Alcotest.(check bool) "acyclic after replay" true (Core.Versioning.is_acyclic store);
  (* And a decode->replay round trip gives the same counts. *)
  let places2 = Browser.Places_db.create () in
  EC.replay (EC.of_bytes (EC.to_bytes events)) [ Browser.Places_db.apply_event places2 ];
  Alcotest.(check int) "places parity through bytes"
    (Browser.Places_db.visit_count places)
    (Browser.Places_db.visit_count places2)

let test_truncation_and_magic () =
  let events = recorded_events 83 in
  let bytes = EC.to_bytes events in
  let cut = EC.of_bytes (String.sub bytes 0 (String.length bytes / 2)) in
  Alcotest.(check bool) "prefix recovered" true
    (List.length cut < List.length events && List.length cut > 0);
  (* The walker reports a cut that is guaranteed mid-record: one byte
     past the clean prefix we just recovered. *)
  let clean = String.length (EC.to_bytes cut) in
  if (EC.read_prefix (String.sub bytes 0 (clean + 1))).Provkit_util.Frame.clean then
    Alcotest.fail "a mid-record cut should read as not clean";
  try
    ignore (EC.of_bytes "WRONGMAGIC");
    Alcotest.fail "bad magic accepted"
  with Relstore.Errors.Corrupt _ -> ()

let test_save_load () =
  let events = recorded_events 84 in
  let path = Filename.temp_file "events" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      EC.save ~path events;
      Alcotest.(check int) "disk round trip" (List.length events)
        (List.length (EC.load ~path)))

let suite =
  [
    Alcotest.test_case "roundtrip real stream" `Quick test_roundtrip_real_stream;
    Alcotest.test_case "replay rebuilds stores" `Quick test_replay_rebuilds_equivalent_stores;
    Alcotest.test_case "truncation and magic" `Quick test_truncation_and_magic;
    Alcotest.test_case "save/load" `Quick test_save_load;
  ]
