(* The corruption matrix: damage every byte of each binary image and
   demand a disciplined response.  A decoder confronted with a flipped
   byte may raise Errors.Corrupt or produce a well-formed value; it must
   never escape with Invalid_argument, Failure, an out-of-bounds access,
   or a constraint error from deeper layers. *)

module DB = Relstore.Database
module Schema = Relstore.Schema
module Column = Relstore.Column
module Table = Relstore.Table
module Value = Relstore.Value
module PL = Core.Prov_log
module EC = Browser.Event_codec
module Frame = Provkit_util.Frame
module TL = Provkit_obs.Telemetry_log

let flip_patterns = [ 0xFF; 0x01 ]

let damage s k pattern =
  String.mapi (fun i c -> if i = k then Char.chr (Char.code c lxor pattern) else c) s

let sample_database () =
  let db = DB.create ~name:"corruption_fixture" in
  let visits =
    DB.create_table db
      (Schema.make ~name:"visits"
         [
           Column.make "url" Value.Ttext;
           Column.make "day" Value.Tint;
           Column.make ~nullable:true "score" Value.Treal;
           Column.make "pinned" Value.Tbool;
           Column.make ~nullable:true "payload" Value.Tblob;
         ])
  in
  Table.add_index visits ~name:"by_url_day" ~columns:[ "url"; "day" ];
  for i = 1 to 12 do
    ignore
      (Table.insert_fields visits
         [
           ("url", Value.Text (Printf.sprintf "http://site%d.example/a?b=%d" (i mod 3) i));
           ("day", Value.Int (i * 7));
           ("score", if i mod 4 = 0 then Value.Null else Value.Real (0.5 +. float_of_int i));
           ("pinned", Value.Bool (i mod 2 = 0));
           ( "payload",
             if i mod 3 = 0 then Value.Null
             else Value.Blob (Bytes.init (i mod 5) (fun j -> Char.chr (((i * 31) + j) land 0xFF))) );
         ])
  done;
  let tags =
    DB.create_table db
      (Schema.make ~name:"tags" [ Column.make "visit" Value.Tint; Column.make "tag" Value.Ttext ])
  in
  for i = 1 to 8 do
    ignore
      (Table.insert_fields tags
         [ ("visit", Value.Int i); ("tag", Value.Text (String.make (i mod 4) 't')) ])
  done;
  db

(* Satellite (b): flip every byte of a database image.  "Well-formed" is
   checked by re-serializing the accepted result — a decoder that built
   a broken in-memory structure would blow up there. *)
let test_database_flip_matrix () =
  let image = DB.to_bytes (sample_database ()) in
  let detected = ref 0 and accepted = ref 0 in
  List.iter
    (fun pattern ->
      for k = 0 to String.length image - 1 do
        match DB.of_bytes (damage image k pattern) with
        | db ->
          incr accepted;
          ignore (DB.to_bytes db)
        | exception Relstore.Errors.Corrupt _ -> incr detected
        | exception e ->
          Alcotest.failf "byte %d ^ 0x%02X escaped with %s" k pattern (Printexc.to_string e)
      done)
    flip_patterns;
  (* The database image is structure-validated, not checksummed, so some
     flips (e.g. inside string payloads) legitimately decode; the matrix
     only demands that nothing escapes the two sanctioned outcomes. *)
  Alcotest.(check int) "every damaged image was handled"
    (List.length flip_patterns * String.length image)
    (!detected + !accepted);
  Alcotest.(check bool) "structural damage is detected" true (!detected > 0)

let sample_journal () =
  let store, journal = PL.recording_store () in
  for i = 1 to 25 do
    let v =
      Core.Prov_store.add_visit store ~engine_visit:i
        ~url:(Printf.sprintf "http://j%d.example/" i)
        ~title:(Printf.sprintf "title %d" i) ~transition:Browser.Transition.Typed ~tab:(i mod 3)
        ~time:(500 + i)
    in
    if i mod 2 = 0 then
      Core.Prov_store.add_edge store ~src:(max 1 (v - 2)) ~dst:v Core.Prov_edge.Same_time
        ~time:(500 + i)
  done;
  journal

(* Acceptance gate: the v2 journal detects 100% of single-byte flips —
   the walker reports the image not clean (or rejects a damaged magic),
   and the recovered journal never holds the full sequence. *)
let test_journal_flip_matrix () =
  let journal = sample_journal () in
  let image = PL.to_bytes journal in
  let total = PL.length journal in
  for k = 0 to String.length image - 1 do
    let damaged = damage image k 0xFF in
    (match PL.read_prefix damaged with
    | p -> if p.Frame.clean then Alcotest.failf "walker reported a flip at byte %d clean" k
    | exception Relstore.Errors.Corrupt _ -> ());
    match PL.of_bytes damaged with
    | recovered ->
      if PL.length recovered >= total then
        Alcotest.failf "tolerant decode kept all %d ops despite a flip at byte %d" total k
    | exception Relstore.Errors.Corrupt _ -> () (* damage inside the magic *)
  done

let test_event_trace_flip_matrix () =
  let events =
    List.init 20 (fun i ->
        if i mod 3 = 0 then
          Browser.Event.Search
            { time = 900 + i; search_id = i; query = Printf.sprintf "query %d" i; serp_visit = i }
        else
          Browser.Event.Close { time = 900 + i; tab = i mod 4; visit_id = i })
  in
  let image = EC.to_bytes events in
  let total = List.length events in
  for k = 0 to String.length image - 1 do
    let damaged = damage image k 0xFF in
    (match EC.read_prefix damaged with
    | p -> if p.Frame.clean then Alcotest.failf "walker reported a flip at byte %d clean" k
    | exception Relstore.Errors.Corrupt _ -> ());
    match EC.of_bytes damaged with
    | recovered ->
      if List.length recovered >= total then
        Alcotest.failf "tolerant decode kept all %d events despite a flip at byte %d" total k
    | exception Relstore.Errors.Corrupt _ -> ()
  done

(* The telemetry journal recovers through the same walker with the
   4-byte length: every flip is reported as a cut tail and never keeps
   the whole journal. *)
let test_telemetry_journal_flip_matrix () =
  Test_wal.with_temp_dir @@ fun dir ->
  let path = Test_telemetry_log.write_journal dir ~n_points:2 ~n_trs:2 () in
  let image = In_channel.with_open_bin path In_channel.input_all in
  let total = (TL.replay ~path).TL.rp_records in
  let damaged_path = Filename.concat dir "damaged.ptj" in
  for k = 0 to String.length image - 1 do
    Out_channel.with_open_bin damaged_path (fun oc ->
        Out_channel.output_string oc (damage image k 0xFF));
    match TL.replay ~path:damaged_path with
    | rp ->
      if not rp.TL.rp_truncated then Alcotest.failf "flip at byte %d reported clean" k;
      if rp.TL.rp_records >= total then
        Alcotest.failf "flip at byte %d kept all %d records" k total
    | exception Relstore.Errors.Corrupt _ -> () (* damage inside the magic *)
  done

(* Random multi-byte damage on top of the exhaustive single-byte pass:
   stomp a short run of bytes at a random offset. *)
let test_database_random_burst_damage () =
  let image = DB.to_bytes (sample_database ()) in
  let rng = Test_seed.prng ~salt:30 in
  for _ = 1 to 400 do
    let start = Provkit_util.Prng.int rng (String.length image) in
    let len = 1 + Provkit_util.Prng.int rng 16 in
    let damaged =
      String.mapi
        (fun i c ->
          if i >= start && i < start + len then Char.chr (Provkit_util.Prng.int rng 256) else c)
        image
    in
    match DB.of_bytes damaged with
    | db -> ignore (DB.to_bytes db)
    | exception Relstore.Errors.Corrupt _ -> ()
    | exception e ->
      Alcotest.failf "burst at %d+%d escaped with %s" start len (Printexc.to_string e)
  done

let suite =
  [
    Alcotest.test_case "database single-byte flip matrix" `Slow test_database_flip_matrix;
    Alcotest.test_case "journal flips: 100% detected" `Slow test_journal_flip_matrix;
    Alcotest.test_case "event trace flips: 100% detected" `Slow test_event_trace_flip_matrix;
    Alcotest.test_case "telemetry journal flips: 100% detected" `Slow
      test_telemetry_journal_flip_matrix;
    Alcotest.test_case "database burst damage" `Quick test_database_random_burst_damage;
  ]
