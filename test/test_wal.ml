(* The segmented write-ahead log: rotation, compaction, manifest-driven
   recovery, fault injection on the active segment, the v1 compatibility
   path, and the exhaustive crash-point sweep (every byte offset of a
   >= 1000-op journal must recover an op-sequence prefix). *)

module PL = Core.Prov_log
module Seg = Core.Prov_log.Segmented
module Store = Core.Prov_store
module PE = Core.Prov_edge
module F = Provkit_util.Faulty_io
module Prng = Provkit_util.Prng
module Transition = Browser.Transition

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun entry -> rm_rf (Filename.concat path entry)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let path = Filename.temp_file "wal_test" ".d" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

(* Deterministic store workload: visits (which auto-create pages and
   Instance edges), link-traversal edges, and close stamps. *)
let drive store rng rounds =
  let prev = ref None in
  for i = 1 to rounds do
    let url = Printf.sprintf "http://w%d.example/p%d" (Prng.int rng 7) (Prng.int rng 200) in
    let v =
      Store.add_visit store ~engine_visit:i ~url ~title:"page" ~transition:Transition.Link
        ~tab:(Prng.int rng 4) ~time:(1000 + i)
    in
    (match !prev with
    | Some p when Prng.int rng 3 > 0 ->
      Store.add_edge store ~src:p ~dst:v PE.Link_traversal ~time:(1000 + i)
    | _ -> ());
    prev := Some v;
    if Prng.int rng 4 = 0 then Store.close_visit store ~engine_visit:i ~time:(1001 + i)
  done

(* Give the active segment a known layout for the offset-based fault
   tests: rotate to a fresh segment, then append exactly one wide page
   node, so the segment is the 8-byte magic followed by one > 90-byte
   frame no matter what the workload seed did before. *)
let ensure_active_frame handle store =
  Seg.rotate handle;
  ignore
    (Store.add_page store
       ~url:("http://pad.example/" ^ String.make 80 'x')
       ~title:"padding" ~time:999000)

let with_metrics_on f =
  let was = Provkit_obs.Metrics.enabled () in
  Provkit_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Provkit_obs.Metrics.set_enabled was) f

let check_parity ~msg live recovered =
  Alcotest.(check int) (msg ^ ": node parity") (Store.node_count live)
    (Store.node_count recovered);
  Alcotest.(check int) (msg ^ ": edge parity") (Store.edge_count live)
    (Store.edge_count recovered)

let test_segmented_roundtrip () =
  with_temp_dir (fun dir ->
      let rng = Test_seed.prng ~salt:10 in
      let handle = Seg.open_ ~config:{ Seg.default_config with Seg.max_segment_bytes = 2048 } dir in
      let store = Store.create () in
      Seg.attach handle store;
      drive store rng 120;
      Seg.close handle;
      Alcotest.(check bool) "rotation produced several segments" true
        (List.length (Seg.segments handle) > 2);
      let r = Seg.recover ~dir () in
      Alcotest.(check bool) "clean shutdown recovers untruncated" false r.Seg.truncated;
      Alcotest.(check int) "every appended op replays" (Seg.appended handle) r.Seg.ops_applied;
      check_parity ~msg:"clean recovery" store r.Seg.store)

let test_compaction () =
  (* Snapshot restore re-derives the session-only Same_time edges from
     visit stamps, so compaction must be exercised with a store built by
     the real capture pipeline — there the derived set equals the live
     set.  The synthetic [drive] workload would not round trip. *)
  with_temp_dir (fun dir ->
      let handle = Seg.open_ ~config:{ Seg.default_config with Seg.max_segment_bytes = 1024 } dir in
      let capture, feed = Core.Capture.observer () in
      let store = Core.Capture.store capture in
      Seg.attach handle store;
      let _web, engine, _api, _trace = Core_fixtures.simulated ~seed:17 ~days:1 () in
      let events = Browser.Engine.event_log engine in
      let half = List.length events / 2 in
      List.iteri
        (fun i event ->
          feed event;
          if i = half then begin
            let before = List.length (Seg.segments handle) in
            let fsyncs () = Provkit_obs.Metrics.counter_value Provkit_obs.Names.wal_fsyncs in
            with_metrics_on (fun () ->
                let c0 = fsyncs () in
                Seg.compact handle store;
                (* Snapshot close, new segment header, manifest close;
                   the old segment was synced by its last commit. *)
                Alcotest.(check int) "compaction syncs snapshot, segment and manifest" 3
                  (fsyncs () - c0));
            Alcotest.(check int) "compaction bumps the generation" 1 (Seg.generation handle);
            Alcotest.(check bool) "compaction drops old segments" true
              (List.length (Seg.segments handle) < before);
            with_metrics_on (fun () ->
                let c0 = fsyncs () in
                Seg.rotate handle;
                Alcotest.(check int) "rotation syncs segment header and manifest" 2
                  (fsyncs () - c0))
          end)
        events;
      Seg.close handle;
      let r = Seg.recover ~dir () in
      Alcotest.(check bool) "recovery after compaction is clean" false r.Seg.truncated;
      check_parity ~msg:"snapshot + tail" store r.Seg.store;
      Alcotest.(check bool) "tail is only the post-compaction ops" true
        (r.Seg.ops_applied < Seg.appended handle))

let test_crash_fault_on_active_segment () =
  with_temp_dir (fun dir ->
      let rng = Test_seed.prng ~salt:12 in
      let handle = Seg.open_ ~config:{ Seg.default_config with Seg.max_segment_bytes = 1024 } dir in
      let store = Store.create () in
      Seg.attach handle store;
      drive store rng 100;
      ensure_active_frame handle store;
      (* Lose most of the active segment, as if the machine died. *)
      F.arm (Seg.active_sink handle) [ F.Crash_after_bytes 20 ];
      Seg.close handle;
      let r = Seg.recover ~dir () in
      Alcotest.(check bool) "crash recovery reports truncation" true r.Seg.truncated;
      Alcotest.(check bool) "a strict prefix of the ops survives" true
        (r.Seg.ops_applied < Seg.appended handle);
      Alcotest.(check bool) "recovered store is a prefix of the live one" true
        (Store.node_count r.Seg.store <= Store.node_count store
        && Store.edge_count r.Seg.store <= Store.edge_count store))

let test_flip_fault_detected () =
  with_temp_dir (fun dir ->
      let rng = Test_seed.prng ~salt:13 in
      let handle = Seg.open_ ~config:{ Seg.default_config with Seg.max_segment_bytes = 1024 } dir in
      let store = Store.create () in
      Seg.attach handle store;
      drive store rng 100;
      ensure_active_frame handle store;
      (* Complement one byte inside the active segment's first frame:
         the checksum must catch it even though nothing is truncated. *)
      F.arm (Seg.active_sink handle) [ F.Flip_byte 12 ];
      Seg.close handle;
      let r = Seg.recover ~dir () in
      Alcotest.(check bool) "flipped byte ends the readable prefix" true r.Seg.truncated;
      Alcotest.(check bool) "ops stop before the damaged frame" true
        (r.Seg.ops_applied < Seg.appended handle))

let test_no_append_after_torn_tail () =
  with_temp_dir (fun dir ->
      let rng = Test_seed.prng ~salt:14 in
      let h1 = Seg.open_ ~config:{ Seg.default_config with Seg.max_segment_bytes = 512 } dir in
      let store = Store.create () in
      Seg.attach h1 store;
      drive store rng 60;
      F.arm (Seg.active_sink h1) [ F.Torn_final_write 3 ];
      Seg.close h1;
      let after_crash = Seg.recover ~dir () in
      (* Reopen and append more: the new ops must land in a fresh
         segment, never after the torn frame. *)
      let h2 = Seg.open_ ~config:{ Seg.default_config with Seg.max_segment_bytes = 512 } dir in
      let store2 = Store.create () in
      Seg.attach h2 store2;
      drive store2 (Prng.create 99) 10;
      Seg.close h2;
      let r = Seg.recover ~dir () in
      (* The torn segment still ends recovery where it did: the global
       prefix invariant holds even with younger healthy segments. *)
      Alcotest.(check int) "torn frame still bounds recovery"
        after_crash.Seg.ops_applied r.Seg.ops_applied;
      Alcotest.(check bool) "still reported as truncated" true r.Seg.truncated)

let test_recover_missing_dir_and_empty () =
  with_temp_dir (fun dir ->
      let handle = Seg.open_ dir in
      Seg.close handle;
      let r = Seg.recover ~dir () in
      Alcotest.(check int) "empty WAL recovers an empty store" 0
        (Store.node_count r.Seg.store);
      Alcotest.(check bool) "empty WAL is clean" false r.Seg.truncated)

let test_v1_journal_still_loads () =
  let store, journal = PL.recording_store () in
  drive store (Test_seed.prng ~salt:15) 40;
  let v1 = PL.to_bytes_v1 journal in
  let v2 = PL.to_bytes journal in
  Alcotest.(check (option int)) "v1 magic" (Some 1) (PL.format_version v1);
  Alcotest.(check (option int)) "v2 magic" (Some 2) (PL.format_version v2);
  Alcotest.(check bool) "v2 image costs more than v1" true
    (String.length v2 > String.length v1);
  Alcotest.(check bool) "v1 journal loads identically" true
    (PL.ops (PL.of_bytes v1) = PL.ops journal);
  Alcotest.(check bool) "v2 journal loads identically" true
    (PL.ops (PL.of_bytes v2) = PL.ops journal)

let test_v1_event_trace_still_loads () =
  let events =
    List.init 30 (fun i ->
        Browser.Event.Visit
          {
            Browser.Event.visit_id = i;
            time = 100 + i;
            tab = i mod 3;
            page = (if i mod 2 = 0 then Some i else None);
            url = Webmodel.Url.of_string (Printf.sprintf "http://site%d.example/" i);
            title = Printf.sprintf "page %d" i;
            transition = Browser.Transition.Link;
            referrer = (if i > 0 then Some (i - 1) else None);
            via_bookmark = None;
          })
  in
  let v1 = Browser.Event_codec.to_bytes_v1 events in
  let v2 = Browser.Event_codec.to_bytes events in
  Alcotest.(check (option int)) "v1 magic" (Some 1) (Browser.Event_codec.format_version v1);
  Alcotest.(check (option int)) "v2 magic" (Some 2) (Browser.Event_codec.format_version v2);
  Alcotest.(check bool) "v1 trace loads identically" true
    (Browser.Event_codec.of_bytes v1 = events);
  Alcotest.(check bool) "v2 trace loads identically" true
    (Browser.Event_codec.of_bytes v2 = events)

(* The satellite sweep: cut a >= 1000-op journal at EVERY byte offset and
   demand that recovery yields an op-sequence prefix. *)
let test_crash_point_sweep () =
  let store, journal = PL.recording_store () in
  drive store (Test_seed.prng ~salt:16) 450;
  let full = Array.of_list (PL.ops journal) in
  Alcotest.(check bool) "journal is big enough to mean something" true
    (Array.length full >= 1000);
  let bytes = PL.to_bytes journal in
  let is_prefix ops =
    let rec go i = function
      | [] -> true
      | op :: rest -> i < Array.length full && full.(i) = op && go (i + 1) rest
    in
    go 0 ops
  in
  (* Loading a journal appends each decoded op, so the journal-append
     counter must advance by exactly the recovered-op count at every
     cut — the metric is checked against ground truth across the whole
     sweep. *)
  let was_enabled = Provkit_obs.Metrics.enabled () in
  Provkit_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Provkit_obs.Metrics.set_enabled was_enabled)
  @@ fun () ->
  for cut = 0 to String.length bytes do
    let appends_before =
      Provkit_obs.Metrics.counter_value Provkit_obs.Names.journal_appends
    in
    let incidents_before = Provkit_obs.Flight.recorded () in
    let loaded =
      try Some (PL.of_bytes (String.sub bytes 0 cut)) with
      | Relstore.Errors.Corrupt _ -> None (* a cut inside the magic recovers nothing *)
    in
    let recovered = match loaded with Some log -> PL.ops log | None -> [] in
    if not (is_prefix recovered) then
      Alcotest.failf "cut at byte %d/%d recovered a non-prefix (%d ops)" cut
        (String.length bytes) (List.length recovered);
    let appends_delta =
      Provkit_obs.Metrics.counter_value Provkit_obs.Names.journal_appends
      - appends_before
    in
    if appends_delta <> List.length recovered then
      Alcotest.failf "cut at byte %d: append counter moved by %d for %d recovered ops"
        cut appends_delta (List.length recovered);
    (* The flight recorder must log exactly one postmortem incident per
       truncated load and none for clean ones.  A load is truncated iff
       it salvaged fewer bytes than it was offered (a cut on a record
       boundary re-encodes to exactly [cut] bytes); cuts inside the
       magic raise before any salvage and must stay silent too. *)
    let expected_incidents =
      match loaded with
      | None -> 0
      | Some log -> if PL.byte_size log < cut then 1 else 0
    in
    let incident_delta = Provkit_obs.Flight.recorded () - incidents_before in
    if incident_delta <> expected_incidents then
      Alcotest.failf "cut at byte %d: %d flight incident(s) recorded, expected %d" cut
        incident_delta expected_incidents
  done

(* ---- group commit ------------------------------------------------- *)

(* A deterministic op list for the group-commit tests: recorded once
   through the journaling store, then replayed into WAL handles by hand
   so the tests control exactly when each append happens. *)
let make_ops ~salt rounds =
  let store, journal = PL.recording_store () in
  drive store (Test_seed.prng ~salt) rounds;
  PL.ops journal

let take n l = List.filteri (fun i _ -> i < n) l

(* One fsync per [group_commit_ops] appends, counted against the obs
   counter (the acceptance criterion's ground truth), plus the explicit
   [durable] barrier for the tail. *)
let test_group_commit_fsync_count () =
  with_temp_dir (fun dir ->
      with_metrics_on (fun () ->
          let ops = take 20 (make_ops ~salt:21 30) in
          Alcotest.(check int) "test needs exactly 20 ops" 20 (List.length ops);
          let config =
            {
              Seg.max_segment_bytes = 1 lsl 20;
              (* never rotate *)
              Seg.group_commit_ops = 8;
              Seg.group_commit_bytes = 1 lsl 20;
            }
          in
          let h = Seg.open_ ~config dir in
          let fsyncs () = Provkit_obs.Metrics.counter_value Provkit_obs.Names.wal_fsyncs in
          let c0 = fsyncs () in
          List.iter (Seg.append h) ops;
          Alcotest.(check int) "20 appends at G=8 cost 2 fsyncs" 2 (fsyncs () - c0);
          Alcotest.(check int) "the tail of the third batch is pending" 4 (Seg.pending h);
          Seg.durable h;
          Alcotest.(check int) "durable flushes the pending tail" 0 (Seg.pending h);
          Alcotest.(check int) "durable cost exactly one more fsync" 3 (fsyncs () - c0);
          Alcotest.(check (float 1e-9)) "fsyncs-per-append gauge is batch/append truth"
            (3.0 /. 20.0)
            (Provkit_obs.Metrics.gauge_value Provkit_obs.Names.wal_fsyncs_per_append);
          Seg.durable h;
          Alcotest.(check int) "durable with nothing pending is free" 3 (fsyncs () - c0);
          Seg.close h;
          let r = Seg.recover ~dir () in
          Alcotest.(check bool) "clean recovery" false r.Seg.truncated;
          Alcotest.(check int) "every op recovered" 20 r.Seg.ops_applied))

(* Crash (no close, no flush): what's on disk is exactly the flushed
   batches — recovery loses the undurable tail of at most one batch and
   nothing else, and the surviving image is frame-clean (no incident). *)
let test_group_commit_crash_loses_only_pending_tail () =
  with_temp_dir (fun dir ->
      let ops = take 20 (make_ops ~salt:22 30) in
      let config =
        {
          Seg.max_segment_bytes = 1 lsl 20;
          Seg.group_commit_ops = 8;
          Seg.group_commit_bytes = 1 lsl 20;
        }
      in
      let h = Seg.open_ ~config dir in
      List.iter (Seg.append h) ops;
      Alcotest.(check int) "4 ops are undurable" 4 (Seg.pending h);
      (* No close: the pending tail never reaches the file, exactly a
         machine-off crash under Faulty_io's buffering model. *)
      let r = Seg.recover ~dir () in
      Alcotest.(check int) "recovery = appends minus the pending tail" 16 r.Seg.ops_applied;
      Alcotest.(check bool) "flushed image is frame-clean" false r.Seg.truncated;
      (* After the barrier the same crash loses nothing. *)
      Seg.durable h;
      let r2 = Seg.recover ~dir () in
      Alcotest.(check int) "durable makes the whole log survive" 20 r2.Seg.ops_applied;
      Seg.close h)

(* A batch torn mid-frame by the crash: recovery keeps a frame-aligned
   prefix of the batch and files exactly one flight incident for the
   truncated segment. *)
let test_group_commit_torn_batch () =
  with_temp_dir (fun dir ->
      with_metrics_on (fun () ->
          let ops = take 20 (make_ops ~salt:23 30) in
          let config =
            {
              Seg.max_segment_bytes = 1 lsl 20;
              Seg.group_commit_ops = 64;
              Seg.group_commit_bytes = 1 lsl 20;
            }
          in
          let h = Seg.open_ ~config dir in
          Seg.append_batch h ops;
          Alcotest.(check int) "whole batch pending below the trigger" 20 (Seg.pending h);
          (* Tear the batch's single sink write a few bytes in, then
             crash-close: only a mid-frame fragment reaches the disk. *)
          F.arm (Seg.active_sink h) [ F.Torn_final_write 3 ];
          Seg.close h;
          let incidents_before = Provkit_obs.Flight.recorded () in
          let r = Seg.recover ~dir () in
          Alcotest.(check bool) "torn batch reports truncation" true r.Seg.truncated;
          Alcotest.(check bool) "a strict prefix of the batch survives" true
            (r.Seg.ops_applied < 20);
          Alcotest.(check int) "exactly one incident for the truncated load" 1
            (Provkit_obs.Flight.recorded () - incidents_before)))

(* append_batch at the default (per-append durability) config still
   costs exactly one fsync for the whole batch: the trigger fires once,
   after the single sink write. *)
let test_append_batch_default_config () =
  with_temp_dir (fun dir ->
      with_metrics_on (fun () ->
          let ops = take 20 (make_ops ~salt:24 30) in
          let h = Seg.open_ ~config:{ Seg.default_config with Seg.max_segment_bytes = 1 lsl 20 } dir in
          let fsyncs () = Provkit_obs.Metrics.counter_value Provkit_obs.Names.wal_fsyncs in
          let c0 = fsyncs () in
          Seg.append_batch h ops;
          Alcotest.(check int) "one fsync for the whole batch" 1 (fsyncs () - c0);
          Alcotest.(check int) "nothing left pending" 0 (Seg.pending h);
          Seg.append_batch h [];
          Alcotest.(check int) "empty batch is free" 1 (fsyncs () - c0);
          Seg.close h;
          let r = Seg.recover ~dir () in
          Alcotest.(check bool) "clean recovery" false r.Seg.truncated;
          Alcotest.(check int) "batch recovers op-for-op" 20 r.Seg.ops_applied;
          (* Parity with the per-append path: same ops, same store. *)
          let store = Store.create () in
          List.iter (PL.apply_op store) ops;
          check_parity ~msg:"batch ingest" store r.Seg.store))

(* Kill the writer between commits on the real sink.  One child process
   (wal_writer.exe) appends a saved op list at group_commit_ops = 8 and
   reports every commit; SIGKILL lands after a few reports.  Recovery
   must return an op-prefix of the list that holds every op the child
   reported committed. *)
let test_kill_writer () =
  with_temp_dir (fun dir ->
      let ops = make_ops ~salt:28 2000 in
      let journal = PL.create () in
      List.iter (PL.append journal) ops;
      let journal_path = Filename.concat dir "ops.journal" in
      PL.save journal ~path:journal_path;
      let wal = Filename.concat dir "wal" in
      let helper = Filename.concat (Filename.dirname Sys.executable_name) "wal_writer.exe" in
      let child_in, to_child = Unix.pipe ~cloexec:true () in
      let from_child, child_out = Unix.pipe ~cloexec:true () in
      let pid =
        Unix.create_process helper [| helper; journal_path; wal |] child_in child_out Unix.stderr
      in
      Unix.close child_in;
      Unix.close child_out;
      let ic = Unix.in_channel_of_descr from_child in
      let committed = ref 0 in
      let rec read_reports n =
        if n > 0 then
          match In_channel.input_line ic with
          | None | Some "done" -> ()
          | Some line ->
            committed := int_of_string line;
            read_reports (n - 1)
      in
      read_reports 4;
      Unix.kill pid Sys.sigkill;
      let _, status = Unix.waitpid [] pid in
      (* Reports the child managed to print before dying count too. *)
      read_reports max_int;
      close_in ic;
      Unix.close to_child;
      Alcotest.(check bool) "writer died of SIGKILL" true (status = Unix.WSIGNALED Sys.sigkill);
      Alcotest.(check bool) "writer reported commits" true (!committed > 0);
      let r = Seg.recover ~dir:wal () in
      let k = r.Seg.ops_applied in
      Printf.printf "killed after %d reported commits; recovered %d of %d ops\n" !committed k
        (List.length ops);
      if k < !committed || k > List.length ops then
        Alcotest.failf "recovered %d ops; %d were reported committed, %d appended at most" k
          !committed (List.length ops);
      let expected = Store.create () in
      List.iteri (fun i op -> if i < k then PL.apply_op expected op) ops;
      Alcotest.(check bool) "recovered store is the first k ops" true
        (PL.ops_of_store r.Seg.store = PL.ops_of_store expected))

let suite =
  [
    Alcotest.test_case "segmented roundtrip" `Quick test_segmented_roundtrip;
    Alcotest.test_case "compaction" `Quick test_compaction;
    Alcotest.test_case "crash fault on active segment" `Quick test_crash_fault_on_active_segment;
    Alcotest.test_case "flip fault detected" `Quick test_flip_fault_detected;
    Alcotest.test_case "no append after torn tail" `Quick test_no_append_after_torn_tail;
    Alcotest.test_case "empty WAL" `Quick test_recover_missing_dir_and_empty;
    Alcotest.test_case "v1 journal compatibility" `Quick test_v1_journal_still_loads;
    Alcotest.test_case "v1 event trace compatibility" `Quick test_v1_event_trace_still_loads;
    Alcotest.test_case "crash-point sweep (every byte offset)" `Slow test_crash_point_sweep;
    Alcotest.test_case "group commit: fsync counting" `Quick test_group_commit_fsync_count;
    Alcotest.test_case "group commit: crash loses only pending tail" `Quick
      test_group_commit_crash_loses_only_pending_tail;
    Alcotest.test_case "group commit: torn batch" `Quick test_group_commit_torn_batch;
    Alcotest.test_case "append_batch at default config" `Quick test_append_batch_default_config;
    Alcotest.test_case "kill the writer between commits" `Quick test_kill_writer;
  ]
