(* provd: the concurrent serving front-end over the capture/WAL/query
   stack.

   One supervisor ([start]/[wait]) runs, on OCaml domains:

   - N producer sessions pushing deterministic browsing events into a
     bounded {!Event_queue} (back-pressure, never drop), interleaved
     with snapshot reads according to the configured mix;
   - ONE ingest loop — the sole owner of the store, the WAL handle,
     the matview registry and the live relational image — draining the
     queue in batches through [Capture.handle_batch], folding each
     batch's ops into the matviews and the image ([Prov_schema.apply]),
     appending them through the WAL group-commit path
     ([Segmented.append_batch]), and publishing immutable read
     snapshots at a batch-boundary cadence;
   - M read workers serving queries against the latest published
     snapshot (epoch-pinned: a reader holds one [snapshot] value for a
     whole query, so it never observes torn mid-batch state);
   - one background job runner (stats analyze over the snapshot,
     telemetry pulse) that never touches owner state: jobs needing the
     store (WAL compaction, matview rebuild) are *requested* via flags
     and executed by the ingest loop at a batch boundary.

   The image's tables are persistent maps, so publishing is
   [Relstore.Database.snapshot] of the live image: O(tables + indexes)
   whatever the history's size, and immutable by construction.  The
   snapshot goes out through an [Atomic.t]; readers pay one atomic
   load, no lock, and every snapshot's [seq] is a batch boundary — the
   isolation property the property tests pin bit-for-bit against a
   serial fold of the same ops. *)

module Obs = Provkit_obs
module Event = Browser.Event
module PL = Core.Prov_log
module P = Relstore.Predicate
module Q = Relstore.Query_exec
module Value = Relstore.Value

let m_events = Obs.Metrics.counter Obs.Names.daemon_events_ingested
let m_batches = Obs.Metrics.counter Obs.Names.daemon_batches
let g_depth = Obs.Metrics.gauge Obs.Names.daemon_queue_depth
let m_snapshots = Obs.Metrics.counter Obs.Names.daemon_snapshots
let m_reads = Obs.Metrics.counter Obs.Names.daemon_reads
let h_read_ns = Obs.Metrics.histogram Obs.Names.daemon_read_ns
let m_jobs = Obs.Metrics.counter Obs.Names.daemon_jobs

type config = {
  sessions : int;
  events_per_session : int;
  queue_capacity : int;
  batch_size : int;
  snapshot_every : int;  (** publish a read snapshot every N batches *)
  read_workers : int;
  read_mix : float;  (** per pushed event, probability a session also reads *)
  analyze_every : int;
      (** every N batches, analyze the snapshot if its rows have doubled
          since the last analyze; 0 = never *)
  compact_every : int;  (** request WAL compaction every N batches; 0 = never *)
  seed : int;
  wal_dir : string option;
}

let default =
  {
    sessions = 4;
    events_per_session = 200;
    queue_capacity = 512;
    batch_size = 32;
    snapshot_every = 4;
    read_workers = 2;
    read_mix = 0.25;
    analyze_every = 8;
    compact_every = 0;
    seed = 42;
    wal_dir = None;
  }

type snapshot = { db : Relstore.Database.t; seq : int; generation : int }

type report = {
  r_events : int;
  r_batches : int;
  r_snapshots : int;
  r_reads : int;
  r_read_p99_ns : int;  (** 0 when no reads were served *)
  r_elapsed_ns : int;
  r_queue : Event_queue.stats;
  r_jobs : int;
  r_wal_appended : int;
  r_applied : Event.t list;  (** every ingested event, in applied order *)
  r_batch_seqs : int list;  (** cumulative applied count at each batch boundary *)
  r_node_kinds : (int * int) list;  (** final matview values *)
  r_edge_kinds : (int * int) list;
}

(* Everything the worker domains share.  Spawned closures capture this
   record directly — the supervisor record [t] below exists only for
   the joining side. *)
type ctl = {
  c_cfg : config;
  c_queue : Event.t Event_queue.t;
  c_published : snapshot option Atomic.t;
  c_readers_stop : bool Atomic.t;
  c_compact_req : bool Atomic.t;
  c_rebuild_req : bool Atomic.t;
  (* background wake-up: the ingest loop bumps [c_bg_batches] and
     signals after every batch; [c_bg_done] ends the job runner. *)
  c_bg_lock : Mutex.t;
  c_bg_cond : Condition.t;
  mutable c_bg_batches : int;
  mutable c_bg_done : bool;
}

(* Owner-side mutable state.  Only the ingest domain writes it; the
   supervisor reads it after joining that domain, so the join is the
   publication barrier and no lock is needed. *)
type ingest_state = {
  mutable seq : int;
  mutable batches : int;
  mutable applied_rev : Event.t list;
  mutable batch_seqs_rev : int list;
  mutable generation : int;
  mutable owner_jobs : int;
}

type t = {
  ctl : ctl;
  started_ns : int64;
  producers : int list Domain.t list;  (** each returns its read latencies *)
  readers : int list Domain.t list;
  ingest : (ingest_state * int * (int * int) list * (int * int) list) Worker_pool.job;
  background : int Domain.t;
}

let current_snapshot t = Atomic.get t.ctl.c_published

(* --- reads ------------------------------------------------------------ *)

(* One query against a pinned snapshot.  Rotates across the provenance
   tables; the strict-range shapes on [prov_edge.src] go through the
   planner's (fixed) Lt/Gt and merged-bounds index paths. *)
let serve_read rng snap =
  let t0 = Provkit_util.Timing.now_ns () in
  let db = snap.db in
  let nodes = Relstore.Database.table db Core.Prov_schema.node_table in
  let edges = Relstore.Database.table db Core.Prov_schema.edge_table in
  (match Provkit_util.Prng.int rng 4 with
  | 0 -> ignore (Q.group_count ~by:"kind" nodes)
  | 1 ->
    let cut = 1 + Provkit_util.Prng.int rng (max 1 snap.seq) in
    ignore (Q.count ~where:(P.Cmp (P.Lt, "src", Value.Int cut)) edges)
  | 2 ->
    let lo = Provkit_util.Prng.int rng (max 1 snap.seq) in
    ignore
      (Q.count
         ~where:
           (P.And
              [
                P.Cmp (P.Gt, "src", Value.Int lo);
                P.Cmp (P.Le, "src", Value.Int (lo + 64));
              ])
         edges)
  | _ -> ignore (Q.count ~where:(P.Cmp (P.Ge, "time", Value.Int 0)) nodes));
  let dt = Int64.to_int (Int64.sub (Provkit_util.Timing.now_ns ()) t0) in
  Obs.Metrics.incr m_reads;
  Obs.Metrics.observe h_read_ns dt;
  dt

let reader_loop ctl seed =
  let rng = Provkit_util.Prng.create seed in
  let lats = ref [] in
  while not (Atomic.get ctl.c_readers_stop) do
    match Atomic.get ctl.c_published with
    | None -> Domain.cpu_relax ()
    | Some snap -> lats := serve_read rng snap :: !lats
  done;
  !lats

(* --- producers -------------------------------------------------------- *)

let producer_loop ctl ~session =
  let cfg = ctl.c_cfg in
  let events =
    Loadgen.session_events ~seed:cfg.seed ~session ~events:cfg.events_per_session
  in
  (* Mix decisions come from a separate stream so read volume never
     perturbs the event content. *)
  let rng = Provkit_util.Prng.create (cfg.seed + 0x5e55 + session) in
  let lats = ref [] in
  List.iter
    (fun ev ->
      Event_queue.push ctl.c_queue ev;
      if Provkit_util.Prng.bernoulli rng cfg.read_mix then
        match Atomic.get ctl.c_published with
        | None -> ()
        | Some snap -> lats := serve_read rng snap :: !lats)
    events;
  !lats

(* --- ingest ----------------------------------------------------------- *)

let publish state ctl image =
  Obs.Trace.with_span Obs.Names.span_daemon_snapshot
    ~attrs:[ ("seq", string_of_int state.seq) ]
    (fun () ->
      let db = Relstore.Database.snapshot (Core.Prov_schema.database image) in
      state.generation <- state.generation + 1;
      Atomic.set ctl.c_published
        (Some { db; seq = state.seq; generation = state.generation });
      Obs.Metrics.incr m_snapshots)

let ingest_loop ctl =
  let cfg = ctl.c_cfg in
  let capture, _feed = Core.Capture.observer () in
  let store = Core.Capture.store capture in
  let views, v_nodes, v_edges = Core.Store_views.standard () in
  let image = Core.Prov_schema.image () in
  let wal =
    match cfg.wal_dir with
    | None -> None
    | Some dir ->
      let wcfg =
        {
          PL.Segmented.default_config with
          PL.Segmented.group_commit_ops = max 1 cfg.batch_size;
        }
      in
      Some (PL.Segmented.open_ ~config:wcfg dir)
  in
  let pending = ref [] in
  Core.Prov_store.set_observer store (fun m -> pending := m :: !pending);
  let state =
    {
      seq = 0;
      batches = 0;
      applied_rev = [];
      batch_seqs_rev = [];
      generation = 0;
      owner_jobs = 0;
    }
  in
  (* One batch, traced as [daemon.batch] with one child span per stage:
     capture, fold (matviews and the live image), the WAL write and, on
     the publish cadence, the snapshot.  The WAL stage ends once the
     batch's bytes are written and its sync is handed off: the snapshot
     publishes without waiting for that sync (see provd.mli). *)
  let ingest_batch batch =
    let ops =
      Obs.Trace.with_span Obs.Names.span_daemon_capture (fun () ->
          pending := [];
          Core.Capture.handle_batch capture batch;
          List.rev !pending)
    in
    Obs.Trace.with_span Obs.Names.span_daemon_fold (fun () ->
        Relstore.Matview.feed_batch views ops;
        List.iter (Core.Prov_schema.apply image) ops);
    Option.iter
      (fun h ->
        Obs.Trace.with_span Obs.Names.span_daemon_wal (fun () -> PL.Segmented.append_batch h ops))
      wal;
    state.applied_rev <- List.rev_append batch state.applied_rev;
    state.seq <- state.seq + List.length batch;
    state.batches <- state.batches + 1;
    state.batch_seqs_rev <- state.seq :: state.batch_seqs_rev;
    Obs.Metrics.add m_events (List.length batch);
    Obs.Metrics.incr m_batches;
    Obs.Metrics.set_gauge g_depth (float_of_int (Event_queue.depth ctl.c_queue));
    (* Owner jobs requested by the background runner run here, at a
       batch boundary, so they can never interleave with a batch. *)
    (if Atomic.exchange ctl.c_compact_req false then
       match wal with
       | Some h ->
         PL.Segmented.compact h store;
         state.owner_jobs <- state.owner_jobs + 1;
         Obs.Metrics.incr m_jobs
       | None -> ());
    if Atomic.exchange ctl.c_rebuild_req false then begin
      Relstore.Matview.rebuild views (PL.ops_of_store store);
      state.owner_jobs <- state.owner_jobs + 1;
      Obs.Metrics.incr m_jobs
    end;
    if state.batches mod cfg.snapshot_every = 0 then publish state ctl image
  in
  let rec loop () =
    match Event_queue.pop_batch ctl.c_queue ~max:cfg.batch_size with
    | [] -> ()
    | batch ->
      Obs.Trace.with_span Obs.Names.span_daemon_batch
        ~attrs:[ ("events", string_of_int (List.length batch)) ]
        (fun () -> ingest_batch batch);
      Mutex.protect ctl.c_bg_lock (fun () ->
          ctl.c_bg_batches <- state.batches;
          Condition.signal ctl.c_bg_cond);
      loop ()
  in
  loop ();
  (* The queue is closed and drained: publish the final snapshot (so
     readers and the equivalence tests see every event), wait until the
     WAL is durable, and hand the owner state to the supervisor. *)
  publish state ctl image;
  Obs.Metrics.set_gauge g_depth 0.0;
  let wal_appended =
    match wal with
    | None -> 0
    | Some h ->
      PL.Segmented.durable h;
      let n = PL.Segmented.appended h in
      PL.Segmented.close h;
      n
  in
  (state, wal_appended, Relstore.Matview.value v_nodes, Relstore.Matview.value v_edges)

(* --- background jobs -------------------------------------------------- *)

let background_loop ctl =
  let cfg = ctl.c_cfg in
  let jobs = ref 0 in
  let last_seen = ref 0 in
  let last_analyze = ref 0 in
  let analyzed_rows = ref 0 in
  let last_compact = ref 0 in
  let running = ref true in
  while !running do
    let batches =
      Mutex.protect ctl.c_bg_lock (fun () ->
          while (not ctl.c_bg_done) && ctl.c_bg_batches = !last_seen do
            Condition.wait ctl.c_bg_cond ctl.c_bg_lock
          done;
          if ctl.c_bg_done then running := false;
          ctl.c_bg_batches)
    in
    last_seen := batches;
    if !running then begin
      (* Telemetry pulse: cheap, every wake-up. *)
      Obs.Timeseries.pulse ();
      incr jobs;
      Obs.Metrics.incr m_jobs;
      (* Stats analyze runs against the *snapshot*, never the live
         image: the ingest loop keeps mutating the image, but a
         published database is immutable.  An analyze costs O(rows) and
         its stats are fresh only until the next publish, so it runs
         only once the history has doubled since the last one: O(rows)
         in total over a run, not O(rows) per check. *)
      (if cfg.analyze_every > 0 && batches - !last_analyze >= cfg.analyze_every then begin
         last_analyze := batches;
         match Atomic.get ctl.c_published with
         | None -> ()
         | Some snap ->
           let rows =
             List.fold_left
               (fun acc tbl -> acc + Relstore.Table.row_count tbl)
               0 (Relstore.Database.tables snap.db)
           in
           if rows > 0 && rows >= 2 * !analyzed_rows then begin
             analyzed_rows := rows;
             ignore (Relstore.Stats.analyze_database snap.db);
             incr jobs;
             Obs.Metrics.incr m_jobs
           end
       end);
      if cfg.compact_every > 0 && batches - !last_compact >= cfg.compact_every then begin
        last_compact := batches;
        Atomic.set ctl.c_compact_req true;
        Atomic.set ctl.c_rebuild_req true
      end
    end
  done;
  !jobs

(* --- supervisor ------------------------------------------------------- *)

let validate cfg =
  if cfg.sessions < 1 then invalid_arg "Provd: sessions must be >= 1";
  if cfg.events_per_session < 0 then invalid_arg "Provd: events_per_session must be >= 0";
  if cfg.queue_capacity < 1 then invalid_arg "Provd: queue_capacity must be >= 1";
  if cfg.batch_size < 1 then invalid_arg "Provd: batch_size must be >= 1";
  if cfg.snapshot_every < 1 then invalid_arg "Provd: snapshot_every must be >= 1";
  if cfg.read_workers < 0 then invalid_arg "Provd: read_workers must be >= 0";
  if not (cfg.read_mix >= 0.0 && cfg.read_mix <= 1.0) then
    invalid_arg "Provd: read_mix must be within [0, 1]"

let start cfg =
  validate cfg;
  let ctl =
    {
      c_cfg = cfg;
      c_queue = Event_queue.create ~capacity:cfg.queue_capacity;
      c_published = Atomic.make None;
      c_readers_stop = Atomic.make false;
      c_compact_req = Atomic.make false;
      c_rebuild_req = Atomic.make false;
      c_bg_lock = Mutex.create ();
      c_bg_cond = Condition.create ();
      c_bg_batches = 0;
      c_bg_done = false;
    }
  in
  let started_ns = Provkit_util.Timing.now_ns () in
  (* The ingest loop must exist before producers can make progress past
     one queue's worth of events, but spawn order is immaterial: the
     queue is the only coupling.  The ingest owner, whose heap holds the
     store and the image, runs on the domain {!Worker_pool} keeps from
     one provd instance to the next. *)
  let ingest = Worker_pool.spawn (fun () -> ingest_loop ctl) in
  let background = Domain.spawn (fun () -> background_loop ctl) in
  let producers =
    List.init cfg.sessions (fun session ->
        Domain.spawn (fun () -> producer_loop ctl ~session))
  in
  let readers =
    List.init cfg.read_workers (fun i ->
        Domain.spawn (fun () -> reader_loop ctl (cfg.seed + 0xead + i)))
  in
  { ctl; started_ns; producers; readers; ingest; background }

let percentile_ns p lats =
  match List.sort compare lats with
  | [] -> 0
  | sorted ->
    let n = List.length sorted in
    let idx = min (n - 1) (int_of_float (Float.of_int n *. p)) in
    List.nth sorted idx

let wait t =
  (* Shutdown protocol: sessions finish pushing -> close the queue ->
     the ingest loop drains whatever is left and exits on the empty
     batch -> background runner is told it is done -> readers stop.
     Nothing is dropped: close-then-drain, never drain-then-close. *)
  let producer_lats = List.concat_map Domain.join t.producers in
  Event_queue.close t.ctl.c_queue;
  let state, wal_appended, node_kinds, edge_kinds = Worker_pool.join t.ingest in
  Mutex.protect t.ctl.c_bg_lock (fun () ->
      t.ctl.c_bg_done <- true;
      Condition.broadcast t.ctl.c_bg_cond);
  let bg_jobs = Domain.join t.background in
  Atomic.set t.ctl.c_readers_stop true;
  let reader_lats = List.concat_map Domain.join t.readers in
  let lats = List.rev_append producer_lats reader_lats in
  {
    r_events = state.seq;
    r_batches = state.batches;
    r_snapshots = state.generation;
    r_reads = List.length lats;
    r_read_p99_ns = percentile_ns 0.99 lats;
    r_elapsed_ns = Int64.to_int (Int64.sub (Provkit_util.Timing.now_ns ()) t.started_ns);
    r_queue = Event_queue.stats t.ctl.c_queue;
    r_jobs = state.owner_jobs + bg_jobs;
    r_wal_appended = wal_appended;
    r_applied = List.rev state.applied_rev;
    r_batch_seqs = List.rev state.batch_seqs_rev;
    r_node_kinds = node_kinds;
    r_edge_kinds = edge_kinds;
  }

let run cfg = wait (start cfg)

(* --- health ----------------------------------------------------------- *)

(* Queue admission judgment: saturated-and-open reads as degraded (the
   producers are stalled on back-pressure), closed with a backlog as
   failing (nothing will ever drain it — the ingest loop is gone). *)
let queue_check t () =
  let s = Event_queue.stats t.ctl.c_queue in
  let closed = Event_queue.is_closed t.ctl.c_queue in
  let cap = Event_queue.capacity t.ctl.c_queue in
  if closed && s.Event_queue.depth > 0 then
    ( Obs.Health.Failing,
      Printf.sprintf "closed with %d event(s) stranded" s.Event_queue.depth )
  else if s.Event_queue.depth >= cap then
    (Obs.Health.Degraded, Printf.sprintf "saturated at %d/%d" s.Event_queue.depth cap)
  else
    ( Obs.Health.Ok,
      Printf.sprintf "%d/%d queued, %d pushed, %d drained" s.Event_queue.depth cap
        s.Event_queue.pushed s.Event_queue.popped )

let register_health_check t =
  Obs.Health.register Obs.Names.health_daemon_queue (queue_check t)
