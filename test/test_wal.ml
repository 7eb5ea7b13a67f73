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

(* Every fsync(2) Faulty_io makes while [f] runs, in order, as the
   sync hook reports them (from the owner and the committer thread). *)
let with_sync_log f =
  let lock = Mutex.create () and log = ref [] in
  F.set_sync_hook (Some (fun e -> Mutex.protect lock (fun () -> log := e :: !log)));
  let events () = Mutex.protect lock (fun () -> List.rev !log) in
  Fun.protect ~finally:(fun () -> F.set_sync_hook None) (fun () -> f events)

let fsyncs () = Provkit_obs.Metrics.counter_value Provkit_obs.Names.wal_fsyncs

(* Commits handed off so far: one [prov.wal.batch.ops] sample each. *)
let commits () =
  Provkit_obs.Metrics.hist_count
    (Provkit_obs.Metrics.histogram Provkit_obs.Names.wal_batch_ops)

let dir_syncs events = List.length (List.filter (function F.Dir _ -> true | F.File _ -> false) events)

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
            (* Settle the commits in flight first, so every sync below
               belongs to the compaction or the rotation. *)
            Seg.durable handle;
            with_metrics_on (fun () ->
                with_sync_log (fun events ->
                    let c0 = fsyncs () in
                    Seg.compact handle store;
                    (* Snapshot, new segment header and manifest files;
                       the directory after the segment is created, after
                       the manifest rename and after the removals. *)
                    Alcotest.(check int) "compaction syncs three files and the directory thrice" 6
                      (fsyncs () - c0);
                    Alcotest.(check int) "compaction's directory syncs" 3 (dir_syncs (events ()));
                    Alcotest.(check int) "fsync counter = fsync syscalls" (List.length (events ()))
                      (fsyncs () - c0)));
            Alcotest.(check int) "compaction bumps the generation" 1 (Seg.generation handle);
            Alcotest.(check bool) "compaction drops old segments" true
              (List.length (Seg.segments handle) < before);
            Seg.durable handle;
            with_metrics_on (fun () ->
                with_sync_log (fun events ->
                    let c0 = fsyncs () in
                    Seg.rotate handle;
                    Alcotest.(check int) "rotation syncs header, manifest and the directory twice" 4
                      (fsyncs () - c0);
                    Alcotest.(check int) "rotation's directory syncs" 2 (dir_syncs (events ()));
                    Alcotest.(check int) "fsync counter = fsync syscalls" (List.length (events ()))
                      (fsyncs () - c0)))
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

(* A commit per [group_commit_ops] appends, and at most one fsync per
   commit: commits handed off while a sync runs share the next one, so
   the sync count itself depends on thread timing.  What stays exact:
   the commits each trigger requests, the counter against the syscalls
   made, and [synced] after the [durable] barrier. *)
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
          with_sync_log (fun events ->
              let c0 = fsyncs () and k0 = commits () in
              List.iter (Seg.append h) ops;
              Alcotest.(check int) "20 appends at G=8 hand off 2 commits" 2 (commits () - k0);
              Alcotest.(check int) "the tail of the third batch is pending" 4 (Seg.pending h);
              Alcotest.(check bool) "at most one fsync per commit so far" true (fsyncs () - c0 <= 2);
              Seg.durable h;
              Alcotest.(check int) "durable commits the pending tail" 0 (Seg.pending h);
              Alcotest.(check int) "durable hands off one more commit" 3 (commits () - k0);
              Alcotest.(check int) "durable waits until every op is synced" 20 (Seg.synced h);
              let syncs = fsyncs () - c0 in
              Alcotest.(check bool) "between one fsync and one per commit" true
                (syncs >= 1 && syncs <= 3);
              Alcotest.(check int) "fsync counter = fsync syscalls" (List.length (events ())) syncs;
              Alcotest.(check (float 1e-9)) "fsyncs-per-append gauge is syncs/appends truth"
                (float_of_int syncs /. 20.0)
                (Provkit_obs.Metrics.gauge_value Provkit_obs.Names.wal_fsyncs_per_append);
              Seg.durable h;
              Alcotest.(check int) "durable with nothing pending is free" syncs (fsyncs () - c0));
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

(* append_batch at the default (commit per append) config still hands
   off exactly one commit for the whole batch: the trigger fires once,
   after the single sink write.  A lone commit is exactly one fsync. *)
let test_append_batch_default_config () =
  with_temp_dir (fun dir ->
      with_metrics_on (fun () ->
          let ops = take 20 (make_ops ~salt:24 30) in
          let h = Seg.open_ ~config:{ Seg.default_config with Seg.max_segment_bytes = 1 lsl 20 } dir in
          let c0 = fsyncs () and k0 = commits () in
          Seg.append_batch h ops;
          Alcotest.(check int) "one commit for the whole batch" 1 (commits () - k0);
          Alcotest.(check int) "nothing left pending" 0 (Seg.pending h);
          Seg.durable h;
          Alcotest.(check int) "one fsync for the whole batch" 1 (fsyncs () - c0);
          Alcotest.(check int) "the batch is synced" 20 (Seg.synced h);
          Seg.append_batch h [];
          Seg.durable h;
          Alcotest.(check int) "empty batch is free" 1 (fsyncs () - c0);
          Seg.close h;
          let r = Seg.recover ~dir () in
          Alcotest.(check bool) "clean recovery" false r.Seg.truncated;
          Alcotest.(check int) "batch recovers op-for-op" 20 r.Seg.ops_applied;
          (* Parity with the per-append path: same ops, same store. *)
          let store = Store.create () in
          List.iter (PL.apply_op store) ops;
          check_parity ~msg:"batch ingest" store r.Seg.store))

(* Directory syncs: no commit is reported synced before the directory
   entry of its segment is durable.  Every append records which segment
   it went to; every time [synced] is read, the sync log read just
   before must already hold a directory sync after the first sync of
   the segment holding the last synced op (its header, synced when the
   segment was created). *)
let test_synced_after_directory_sync () =
  with_temp_dir (fun dir ->
      let ops = make_ops ~salt:29 200 in
      let config =
        { Seg.max_segment_bytes = 1024; Seg.group_commit_ops = 4; Seg.group_commit_bytes = 1 lsl 20 }
      in
      with_sync_log (fun events ->
          let h = Seg.open_ ~config dir in
          let seg_of_op = Array.make (List.length ops) "" in
          let active () = Filename.concat dir (List.nth (Seg.segments h) (List.length (Seg.segments h) - 1)) in
          let entry_synced log seg =
            let rec go seen = function
              | [] -> false
              | F.File p :: rest -> go (seen || p = seg) rest
              | F.Dir d :: rest -> (seen && d = dir) || go seen rest
            in
            go false log
          in
          let check () =
            let log = events () in
            let k = Seg.synced h in
            if k > 0 && not (entry_synced log seg_of_op.(k - 1)) then
              Alcotest.failf "op %d reported synced before the directory entry of %s" k
                seg_of_op.(k - 1)
          in
          List.iteri
            (fun i op ->
              seg_of_op.(i) <- active ();
              Seg.append h op;
              check ())
            ops;
          Seg.durable h;
          check ();
          Alcotest.(check int) "every op synced" (List.length ops) (Seg.synced h);
          Alcotest.(check bool) "the ops spanned several segments" true
            (List.length (Seg.segments h) > 2);
          Seg.close h))

(* Pipelined [append_batch] across a rotation and a compaction: batches
   keep being handed off while syncs run, the barrier comes only at the
   end, and recovery returns every op. *)
let test_pipelined_batches_recover () =
  with_temp_dir (fun dir ->
      let config =
        { Seg.max_segment_bytes = 2048; Seg.group_commit_ops = 16; Seg.group_commit_bytes = 1 lsl 20 }
      in
      let h = Seg.open_ ~config dir in
      let capture, _feed = Core.Capture.observer () in
      let store = Core.Capture.store capture in
      let pending = ref [] in
      Store.set_observer store (fun m -> pending := m :: !pending);
      let _web, engine, _api, _trace = Core_fixtures.simulated ~seed:19 ~days:1 () in
      let events = Array.of_list (Browser.Engine.event_log engine) in
      let n = Array.length events and batch = 16 in
      let after_compaction = ref 0 in
      for b = 0 to (n - 1) / batch do
        let evs = Array.to_list (Array.sub events (b * batch) (min batch (n - (b * batch)))) in
        pending := [];
        Core.Capture.handle_batch capture evs;
        Seg.append_batch h (List.rev !pending);
        if b = n / batch / 2 then begin
          Seg.compact h store;
          after_compaction := Seg.appended h
        end
      done;
      Alcotest.(check bool) "batches rotated segments" true (List.length (Seg.segments h) > 1);
      Seg.durable h;
      Alcotest.(check int) "durable: every op synced" (Seg.appended h) (Seg.synced h);
      let r = Seg.recover ~dir () in
      Alcotest.(check bool) "clean recovery" false r.Seg.truncated;
      Alcotest.(check int) "the tail replays every op since the compaction"
        (Seg.appended h - !after_compaction) r.Seg.ops_applied;
      check_parity ~msg:"snapshot + pipelined tail" store r.Seg.store;
      Seg.close h)

(* Kill the writer between commits on the real sink.  One child process
   (wal_writer.exe) appends a saved op list at group_commit_ops = 8 and
   reports every advance of [Seg.synced]; SIGKILL lands after a few
   reports.  Recovery must return an op-prefix of the list that holds
   every op the child reported synced. *)
let test_kill_writer () =
  with_temp_dir (fun dir ->
      let ops = make_ops ~salt:28 2000 in
      let journal = PL.create () in
      List.iter (PL.append journal) ops;
      let journal_path = Filename.concat dir "ops.journal" in
      Out_channel.with_open_bin journal_path (fun oc ->
          Out_channel.output_string oc (PL.to_bytes journal));
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
      let synced = ref 0 in
      let rec read_reports n =
        if n > 0 then
          match In_channel.input_line ic with
          | None | Some "done" -> ()
          | Some line ->
            synced := int_of_string line;
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
      Alcotest.(check bool) "writer reported synced ops" true (!synced > 0);
      let r = Seg.recover ~dir:wal () in
      let k = r.Seg.ops_applied in
      Printf.printf "killed after %d ops reported synced; recovered %d of %d ops\n" !synced k
        (List.length ops);
      if k < !synced || k > List.length ops then
        Alcotest.failf "recovered %d ops; %d were reported synced, %d appended at most" k
          !synced (List.length ops);
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
    Alcotest.test_case "crash-point sweep (every byte offset)" `Slow test_crash_point_sweep;
    Alcotest.test_case "group commit: fsync counting" `Quick test_group_commit_fsync_count;
    Alcotest.test_case "group commit: crash loses only pending tail" `Quick
      test_group_commit_crash_loses_only_pending_tail;
    Alcotest.test_case "group commit: torn batch" `Quick test_group_commit_torn_batch;
    Alcotest.test_case "append_batch at default config" `Quick test_append_batch_default_config;
    Alcotest.test_case "kill the writer between commits" `Quick test_kill_writer;
    Alcotest.test_case "synced after the directory sync" `Quick test_synced_after_directory_sync;
    Alcotest.test_case "pipelined batches across rotation and compaction" `Quick
      test_pipelined_batches_recover;
  ]
