(* The append-only provenance journal: op codec, recording, replay,
   crash truncation, compaction, and qcheck round trips. *)

module PL = Core.Prov_log
module PN = Core.Prov_node
module PE = Core.Prov_edge
module Store = Core.Prov_store
module F = Core_fixtures
module Transition = Browser.Transition

let sample_ops =
  [
    PL.Add_node
      {
        PN.id = 1;
        kind = PN.Page { url = "http://x/1"; title = "One" };
        time = Some 10;
        close_time = None;
      };
    PL.Add_node
      {
        PN.id = 2;
        kind = PN.Visit { url = "http://x/1"; title = "One"; transition = Transition.Typed; tab = 3 };
        time = Some 11;
        close_time = Some 40;
      };
    PL.Add_node
      {
        PN.id = 3;
        kind = PN.Form_submission { fields = [ ("q", "wine"); ("lang", "en") ] };
        time = Some 12;
        close_time = None;
      };
    PL.Add_node
      { PN.id = 4; kind = PN.Search_term { query = "rosebud" }; time = Some 13; close_time = None };
    PL.Add_node
      {
        PN.id = 5;
        kind = PN.Download { source_url = "http://x/f.zip"; target_path = "/tmp/f.zip" };
        time = Some 14;
        close_time = None;
      };
    PL.Add_edge { src = 1; dst = 2; edge = { PE.kind = PE.Instance; time = 11 } };
    PL.Add_edge { src = 2; dst = 5; edge = { PE.kind = PE.Download_source; time = 14 } };
    PL.Close_node { id = 2; time = 41 };
  ]

let test_op_codec_roundtrip () =
  let buf = Buffer.create 256 in
  List.iter (PL.encode_op buf) sample_ops;
  let s = Buffer.contents buf in
  let pos = ref 0 in
  List.iter
    (fun expected ->
      let decoded = PL.decode_op s pos in
      Alcotest.(check bool) "op round trips" true (decoded = expected))
    sample_ops;
  Alcotest.(check int) "fully consumed" (String.length s) !pos

let test_journal_bytes_roundtrip () =
  let j = PL.create () in
  List.iter (PL.append j) sample_ops;
  Alcotest.(check int) "length" (List.length sample_ops) (PL.length j);
  let j' = PL.of_bytes (PL.to_bytes j) in
  Alcotest.(check bool) "ops preserved" true (PL.ops j' = sample_ops);
  Alcotest.(check int) "byte size stable" (PL.byte_size j) (PL.byte_size j')

let test_truncation_tolerated () =
  let j = PL.create () in
  List.iter (PL.append j) sample_ops;
  let bytes = PL.to_bytes j in
  (* Chop mid-final-record: replay keeps the intact prefix. *)
  let cut = PL.of_bytes (String.sub bytes 0 (String.length bytes - 2)) in
  Alcotest.(check int) "one record lost" (List.length sample_ops - 1) (PL.length cut);
  (* ... and the walker says a tail was cut. *)
  Alcotest.(check bool) "not clean" false
    (PL.read_prefix (String.sub bytes 0 (String.length bytes - 2))).Provkit_util.Frame.clean

let test_bad_magic () =
  Alcotest.(check bool) "bad magic rejected" true
    (try
       ignore (PL.of_bytes "NOTALOG");
       false
     with Relstore.Errors.Corrupt _ -> true)

let test_recording_and_replay () =
  let store, journal = PL.recording_store () in
  let page = Store.add_page store ~url:"http://a" ~title:"A" ~time:1 in
  let visit =
    Store.add_visit store ~engine_visit:7 ~url:"http://a" ~title:"A"
      ~transition:Transition.Link ~tab:1 ~time:2
  in
  Store.add_edge store ~src:page ~dst:visit PE.Same_time ~time:2;
  Store.close_visit store ~engine_visit:7 ~time:9;
  let replayed = PL.replay journal in
  Alcotest.(check int) "nodes" (Store.node_count store) (Store.node_count replayed);
  Alcotest.(check int) "edges" (Store.edge_count store) (Store.edge_count replayed);
  Alcotest.(check (option int)) "close time survives" (Some 9)
    (Store.node replayed visit).PN.close_time;
  Alcotest.(check (option int)) "url lookup rebuilt" (Some page)
    (Store.page_of_url replayed "http://a")

let test_journal_under_full_capture () =
  (* Wire a journal into a live capture and compare the replay to the
     capture's own store after simulated browsing. *)
  let capture, feed = Core.Capture.observer () in
  let journal = PL.create () in
  Store.set_observer (Core.Capture.store capture) (PL.append journal);
  let _web, engine, _api, _trace = F.simulated ~seed:31 ~days:1 () in
  List.iter feed (Browser.Engine.event_log engine);
  let original = Core.Capture.store capture in
  let replayed = PL.replay journal in
  Alcotest.(check int) "node parity" (Store.node_count original) (Store.node_count replayed);
  Alcotest.(check int) "edge parity" (Store.edge_count original) (Store.edge_count replayed);
  Alcotest.(check bool) "replayed store still acyclic" true
    (Core.Versioning.is_acyclic replayed)

let op_gen : PL.op QCheck.Gen.t =
  let open QCheck.Gen in
  let str = string_size ~gen:(char_range 'a' 'z') (int_range 0 12) in
  let node_kind =
    frequency
      [
        (2, map2 (fun u t -> PN.Page { url = u; title = t }) str str);
        ( 2,
          map3
            (fun u t tab ->
              PN.Visit { url = u; title = t; transition = Transition.Link; tab })
            str str (int_bound 5) );
        (1, map (fun q -> PN.Search_term { query = q }) str);
        (1, map2 (fun s p -> PN.Download { source_url = s; target_path = p }) str str);
        ( 1,
          map2
            (fun k v -> PN.Form_submission { fields = [ (k, v) ] })
            str str );
      ]
  in
  frequency
    [
      ( 3,
        map3
          (fun id kind time ->
            PL.Add_node { PN.id; kind; time = Some time; close_time = None })
          (int_bound 1000) node_kind (int_bound 100000) );
      ( 2,
        map3
          (fun src dst time ->
            PL.Add_edge { src; dst; edge = { PE.kind = PE.Link_traversal; time } })
          (int_bound 1000) (int_bound 1000) (int_bound 100000) );
      (1, map2 (fun id time -> PL.Close_node { id; time }) (int_bound 1000) (int_bound 100000));
    ]

let prop_random_ops_roundtrip =
  QCheck.Test.make ~name:"random op sequences round trip" ~count:100
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_bound 30) op_gen)) (fun ops ->
      let j = PL.create () in
      List.iter (PL.append j) ops;
      PL.ops (PL.of_bytes (PL.to_bytes j)) = ops)

let prop_any_truncation_recovers_prefix =
  QCheck.Test.make ~name:"any truncation point yields a clean prefix" ~count:60
    (QCheck.make QCheck.Gen.(pair (int_bound 30) (int_bound 1000))) (fun (n_ops, cut) ->
      let j = PL.create () in
      let ops = List.filteri (fun i _ -> i < max 1 n_ops) sample_ops in
      List.iter (PL.append j) ops;
      List.iter (PL.append j) ops;
      let bytes = PL.to_bytes j in
      let keep = max 8 (String.length bytes - (cut mod String.length bytes)) in
      let recovered = PL.of_bytes (String.sub bytes 0 keep) in
      PL.length recovered <= PL.length j
      &&
      (* The recovered prefix must itself re-encode to a prefix of the
         original bytes. *)
      let rbytes = PL.to_bytes recovered in
      String.length rbytes <= String.length bytes
      && String.sub bytes 0 (String.length rbytes) = rbytes)

let suite =
  [
    Alcotest.test_case "op codec roundtrip" `Quick test_op_codec_roundtrip;
    Alcotest.test_case "journal bytes roundtrip" `Quick test_journal_bytes_roundtrip;
    Alcotest.test_case "truncation tolerated" `Quick test_truncation_tolerated;
    Alcotest.test_case "bad magic" `Quick test_bad_magic;
    Alcotest.test_case "recording and replay" `Quick test_recording_and_replay;
    Alcotest.test_case "journal under capture" `Quick test_journal_under_full_capture;
    QCheck_alcotest.to_alcotest prop_random_ops_roundtrip;
    QCheck_alcotest.to_alcotest prop_any_truncation_recovers_prefix;
  ]
