(* provd: the concurrent serving front-end.

   The property suite runs real multi-domain daemons (seeded via
   PROV_TEST_SEED) and pins the three contracts the design note makes:

   - snapshot isolation: every snapshot a reader can observe was built
     at a batch boundary, and equals — bit for bit — a serial replay of
     exactly the first [seq] events the daemon applied (no torn
     mid-batch state, ever);
   - serial equivalence: the final database and matview values are
     identical to applying the daemon's own ingest order on a single
     domain;
   - clean shutdown: closing the queue drains it completely (pushed =
     popped = ingested) and the WAL recovers to the same database. *)

module D = Daemon.Provd
module EQ = Daemon.Event_queue
module PL = Core.Prov_log
module Seg = Core.Prov_log.Segmented
module Database = Relstore.Database
module Matview = Relstore.Matview

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun entry -> rm_rf (Filename.concat path entry)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let path = Filename.temp_file "provd_test" ".d" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let cfg ?(wal_dir = None) ?(compact_every = 0) ?(events = 150) () =
  Test_seed.announce ();
  {
    D.sessions = 4;
    events_per_session = events;
    queue_capacity = 64;
    batch_size = 16;
    snapshot_every = 2;
    read_workers = 2;
    read_mix = 0.2;
    analyze_every = 4;
    compact_every;
    seed = Test_seed.value;
    wal_dir;
  }

(* Serial ground truth: apply [events] on this single domain through a
   fresh capture, and fold the recorded ops, in applied order, into the
   matviews and a fresh relational image — the same folds the ingest
   loop runs, here on one domain and in one batch. *)
let serial_replay events =
  let capture, _feed = Core.Capture.observer () in
  let views, v_nodes, v_edges = Core.Store_views.standard () in
  let pending = ref [] in
  Core.Prov_store.set_observer (Core.Capture.store capture) (fun m ->
      pending := m :: !pending);
  Core.Capture.handle_batch capture events;
  let ops = List.rev !pending in
  Matview.feed_batch views ops;
  let image = Core.Prov_schema.image () in
  List.iter (Core.Prov_schema.apply image) ops;
  (Core.Prov_schema.database image, Matview.value v_nodes, Matview.value v_edges)

let db_bytes = Database.to_bytes

(* --- the queue ------------------------------------------------------- *)

let test_queue_fifo_and_close () =
  let q = EQ.create ~capacity:8 in
  List.iter (EQ.push q) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "fifo drain" [ 1; 2; 3 ] (EQ.pop_batch q ~max:3);
  Alcotest.(check int) "depth after partial drain" 2 (EQ.depth q);
  EQ.close q;
  Alcotest.(check (list int)) "drains the backlog after close" [ 4; 5 ]
    (EQ.pop_batch q ~max:10);
  Alcotest.(check (list int)) "closed and drained returns []" [] (EQ.pop_batch q ~max:10);
  Alcotest.check_raises "push after close" EQ.Closed (fun () -> EQ.push q 6);
  let s = EQ.stats q in
  Alcotest.(check int) "pushed" 5 s.EQ.pushed;
  Alcotest.(check int) "popped" 5 s.EQ.popped;
  Alcotest.(check int) "max depth" 5 s.EQ.max_depth

let test_queue_backpressure () =
  (* A producer domain pushing 100 items through a capacity-4 queue
     must block rather than overflow: the consumer sees every item, in
     order, and the high-water mark never exceeds the capacity. *)
  let q = EQ.create ~capacity:4 in
  let producer = Domain.spawn (fun () -> for i = 1 to 100 do EQ.push q i done) in
  let got = ref [] in
  let n = ref 0 in
  while !n < 100 do
    let batch = EQ.pop_batch q ~max:7 in
    got := List.rev_append batch !got;
    n := !n + List.length batch
  done;
  Domain.join producer;
  Alcotest.(check (list int)) "every item, in order" (List.init 100 (fun i -> i + 1))
    (List.rev !got);
  Alcotest.(check bool) "bounded backlog" true ((EQ.stats q).EQ.max_depth <= 4)

(* --- snapshot isolation ---------------------------------------------- *)

let test_snapshot_isolation () =
  let c = cfg () in
  let t = D.start c in
  (* Sample published snapshots from this (fifth) domain while the
     fleet runs; each retains its immutable database. *)
  let sampled = ref [] in
  let last_gen = ref 0 in
  for _ = 1 to 2_000_000 do
    match D.current_snapshot t with
    | Some s when s.D.generation <> !last_gen ->
      last_gen := s.D.generation;
      sampled := s :: !sampled
    | _ -> Domain.cpu_relax ()
  done;
  let report = D.wait t in
  let applied = Array.of_list report.D.r_applied in
  Alcotest.(check bool) "sampled at least one mid-run snapshot" true
    (List.length !sampled >= 1);
  List.iter
    (fun (s : D.snapshot) ->
      Alcotest.(check bool)
        (Printf.sprintf "snapshot seq %d is a batch boundary" s.D.seq)
        true
        (s.D.seq = 0 || List.mem s.D.seq report.D.r_batch_seqs);
      let prefix = Array.to_list (Array.sub applied 0 s.D.seq) in
      let serial_db, _, _ = serial_replay prefix in
      Alcotest.(check bool)
        (Printf.sprintf "snapshot seq %d equals serial replay bit-for-bit" s.D.seq)
        true
        (String.equal (db_bytes serial_db) (db_bytes s.D.db)))
    !sampled

(* --- serial equivalence ---------------------------------------------- *)

let test_serial_equivalence () =
  let c = cfg () in
  let report = D.run c in
  let expected =
    Daemon.Loadgen.total_events ~sessions:c.D.sessions ~events:c.D.events_per_session
  in
  Alcotest.(check int) "every generated event was ingested" expected report.D.r_events;
  Alcotest.(check int) "applied order has them all" expected
    (List.length report.D.r_applied);
  let serial_db, serial_nodes, serial_edges = serial_replay report.D.r_applied in
  (* Incremental views maintained batch-by-batch across domains equal
     the single-domain fold... *)
  Alcotest.(check bool) "matview node counts match serial" true
    (report.D.r_node_kinds = serial_nodes);
  Alcotest.(check bool) "matview edge counts match serial" true
    (report.D.r_edge_kinds = serial_edges);
  (* ... and the cold relational baseline agrees with both. *)
  Alcotest.(check bool) "serial db kind counts agree with the views" true
    (let nodes = Database.table serial_db Core.Prov_schema.node_table in
     let counts =
       Relstore.Query_exec.group_count ~by:"kind" nodes
       |> List.filter_map (fun (v, n) ->
              match v with Relstore.Value.Int k -> Some (k, n) | _ -> None)
       |> List.sort compare
     in
     counts = List.sort compare serial_nodes);
  Alcotest.(check bool) "final batch boundary covers everything" true
    (match List.rev report.D.r_batch_seqs with
    | last :: _ -> last = report.D.r_events
    | [] -> report.D.r_events = 0)

let test_final_snapshot_bitwise () =
  let c = cfg () in
  let t = D.start c in
  let report = D.wait t in
  match D.current_snapshot t with
  | None -> Alcotest.fail "daemon never published a snapshot"
  | Some s ->
    Alcotest.(check int) "final snapshot covers every event" report.D.r_events s.D.seq;
    let serial_db, _, _ = serial_replay report.D.r_applied in
    Alcotest.(check bool) "final snapshot equals serial replay bit-for-bit" true
      (String.equal (db_bytes serial_db) (db_bytes s.D.db))

(* --- the live image against the export -------------------------------- *)

(* Each table's rows as a sorted multiset, rowids dropped. *)
let sorted_rows db =
  List.map
    (fun t ->
      let rows = ref [] in
      Relstore.Table.iter t (fun _id row -> rows := Array.to_list row :: !rows);
      (Relstore.Table.name t, List.sort compare !rows))
    (Database.tables db)

(* A live image and [Prov_schema.to_database] of the same store agree
   as row multisets, and node rowids are node ids in both.  Edge rowids
   may differ: they follow op order in the image and adjacency order in
   the export. *)
let check_same_image ~what ~image ~export =
  Alcotest.(check bool) (what ^ ": same rows per table") true
    (sorted_rows image = sorted_rows export);
  let nodes db = Relstore.Table.rows (Database.table db Core.Prov_schema.node_table) in
  Alcotest.(check bool) (what ^ ": same node rowids and rows") true
    (nodes image = nodes export)

let test_image_matches_export () =
  let c = cfg () in
  let events =
    List.concat
      (List.init c.D.sessions (fun session ->
           Daemon.Loadgen.session_events ~seed:c.D.seed ~session ~events:c.D.events_per_session))
  in
  let capture, _feed = Core.Capture.observer () in
  let store = Core.Capture.store capture in
  let image = Core.Prov_schema.image () in
  Core.Prov_store.set_observer store (Core.Prov_schema.apply image);
  Core.Capture.handle_batch capture events;
  let image = Core.Prov_schema.database image in
  let export = Core.Prov_schema.to_database store in
  let nodes = Database.table image Core.Prov_schema.node_table in
  Alcotest.(check bool) "node rowids are node ids" true
    (Relstore.Table.rows nodes
    |> List.for_all (fun (rowid, _) -> Core.Prov_store.node_opt store rowid <> None));
  Alcotest.(check int) "one node row per node" (Core.Prov_store.node_count store)
    (Relstore.Table.row_count nodes);
  check_same_image ~what:"image vs export" ~image ~export

(* --- clean shutdown and WAL parity ----------------------------------- *)

let test_shutdown_drains_and_wal_recovers () =
  with_temp_dir @@ fun dir ->
  let c = cfg ~wal_dir:(Some dir) () in
  let t = D.start c in
  D.register_health_check t;
  let report = D.wait t in
  let q = report.D.r_queue in
  Alcotest.(check int) "nothing left queued" 0 q.EQ.depth;
  Alcotest.(check int) "popped everything pushed" q.EQ.pushed q.EQ.popped;
  Alcotest.(check int) "ingested everything pushed" q.EQ.pushed report.D.r_events;
  Alcotest.(check bool) "WAL saw the op stream" true (report.D.r_wal_appended > 0);
  (* Recovery from the WAL directory must rebuild the exact store the
     final snapshot was taken from. *)
  let r = Seg.recover ~dir () in
  Alcotest.(check bool) "recovery read cleanly" false r.Seg.truncated;
  let recovered_db = Core.Prov_schema.to_database r.Seg.store in
  (match D.current_snapshot t with
  | None -> Alcotest.fail "no final snapshot"
  | Some s ->
    check_same_image ~what:"recovered store vs final snapshot" ~image:s.D.db
      ~export:recovered_db);
  (* The queue health check reads Ok once the daemon drained cleanly. *)
  let h = Provkit_obs.Health.run () in
  let cr =
    List.find
      (fun (c : Provkit_obs.Health.check_result) ->
        c.Provkit_obs.Health.cr_name = Provkit_obs.Names.health_daemon_queue)
      h.Provkit_obs.Health.h_checks
  in
  Alcotest.(check bool) "queue check is Ok" true
    (cr.Provkit_obs.Health.cr_verdict = Provkit_obs.Health.Ok);
  Provkit_obs.Health.unregister Provkit_obs.Names.health_daemon_queue

(* Compaction replaces the WAL prefix with a relational snapshot, and
   restoring that snapshot re-derives Instance/Same_time edges rather
   than replaying them, so edge rowids are assigned in a different
   order than a serial fold.  Parity across compaction is therefore the
   row multiset per table, not the byte image. *)
let test_background_compaction_parity () =
  with_temp_dir @@ fun dir ->
  let c = cfg ~wal_dir:(Some dir) ~compact_every:3 ~events:120 () in
  let report = D.run c in
  Alcotest.(check bool) "background jobs ran" true (report.D.r_jobs > 0);
  let r = Seg.recover ~dir () in
  let recovered_db = Core.Prov_schema.to_database r.Seg.store in
  let serial_db, _, _ = serial_replay report.D.r_applied in
  Alcotest.(check bool) "compacted WAL still replays to the serial rows" true
    (sorted_rows serial_db = sorted_rows recovered_db)

let test_reads_served () =
  let c = cfg () in
  let report = D.run c in
  Alcotest.(check bool) "read workers served queries" true (report.D.r_reads > 0);
  Alcotest.(check bool) "p99 is measured" true (report.D.r_read_p99_ns > 0);
  Alcotest.(check bool) "snapshots were published" true (report.D.r_snapshots > 0)

(* The worker that ran a job is parked when [join] returns, so the next
   job runs on the same domain; a job's exception reaches [join] and
   leaves the worker usable; jobs running at once get domains of their
   own, and only one worker stays parked after them. *)
let test_worker_reused () =
  let module W = Daemon.Worker_pool in
  let self () = (Domain.self () :> int) in
  let first = W.join (W.spawn self) in
  Alcotest.(check bool) "worker parked after join" true (W.parked ());
  Alcotest.(check int) "next job runs on the same domain" first (W.join (W.spawn self));
  (match W.join (W.spawn (fun () -> failwith "job failed")) with
  | () -> Alcotest.fail "the job's exception was lost"
  | exception Failure m -> Alcotest.(check string) "job exception re-raised" "job failed" m);
  Alcotest.(check int) "a failed job leaves its worker usable" first (W.join (W.spawn self));
  let gate = Atomic.make false in
  let a =
    W.spawn (fun () ->
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        self ())
  in
  let b =
    W.spawn (fun () ->
        Atomic.set gate true;
        self ())
  in
  let da = W.join a and db = W.join b in
  Alcotest.(check bool) "concurrent jobs on distinct domains" true (da <> db);
  Alcotest.(check bool) "one worker parked after them" true (W.parked ())

let suite =
  [
    Alcotest.test_case "queue fifo + close" `Quick test_queue_fifo_and_close;
    Alcotest.test_case "queue backpressure" `Quick test_queue_backpressure;
    Alcotest.test_case "snapshot isolation" `Slow test_snapshot_isolation;
    Alcotest.test_case "serial equivalence" `Quick test_serial_equivalence;
    Alcotest.test_case "final snapshot bitwise" `Quick test_final_snapshot_bitwise;
    Alcotest.test_case "live image matches export" `Quick test_image_matches_export;
    Alcotest.test_case "shutdown drains + WAL parity" `Quick
      test_shutdown_drains_and_wal_recovers;
    Alcotest.test_case "background compaction parity" `Quick
      test_background_compaction_parity;
    Alcotest.test_case "reads served" `Quick test_reads_served;
    Alcotest.test_case "ingest worker reused" `Quick test_worker_reused;
  ]
