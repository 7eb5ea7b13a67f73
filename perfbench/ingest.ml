(* Workload [ingest]: provd write-only, WAL on, closed loop.

   Two producer sessions push ~5,000 events each into provd's bounded
   queue and block on back-pressure; the ingest owner drains it through
   capture, matviews, the group-committed WAL and snapshot publish.  No
   reads, text index or graph code run.  After each daemon run the
   benchmark recovers the run's WAL, which is the restart a browser pays. *)

module Provd = Daemon.Provd
module PL = Core.Prov_log
module Seg = Core.Prov_log.Segmented
module Matview = Relstore.Matview

let sessions = 2
let events_per_session = 5_000
let recoveries_per_run = 3

let config ~seed ~dir ~events =
  {
    Provd.default with
    Provd.sessions;
    events_per_session = events;
    read_workers = 0;
    read_mix = 0.0;
    analyze_every = 0;
    compact_every = 0;
    seed;
    wal_dir = Some dir;
  }

(* One WAL recovery with the matviews provd restores on restart; checks
   that the recovered views equal the ones the daemon reported. *)
let recover tally ~dir (r : Provd.report) =
  let views, v_nodes, v_edges = Core.Store_views.standard () in
  Common.quiesce ();
  let t0 = Common.now_ns () in
  let rc = Seg.recover ~views ~dir () in
  let ns = Common.now_ns () - t0 in
  Common.checked_op tally
    ((not rc.Seg.truncated)
    && rc.Seg.ops_applied = r.Provd.r_wal_appended
    && Matview.value v_nodes = r.Provd.r_node_kinds
    && Matview.value v_edges = r.Provd.r_edge_kinds)
    "recovered WAL does not reproduce the daemon's view counts";
  ns

type run = {
  events_per_s : float;
  refresh_ms : float list;
  recover_ns : int list;
  wal_bytes : int;
  events : int;
}

(* How often a reader sees a new snapshot: this domain polls
   [Provd.current_snapshot] every millisecond and records the time
   between successive generations.  Each interval is how long freshly
   captured history stays invisible to queries. *)
let refresh_poller () =
  let last_gen = ref 0 and last_seen = ref 0 and intervals = ref [] in
  let tick t =
    (match Provd.current_snapshot t with
    | Some s when s.Provd.generation <> !last_gen ->
      let now = Common.now_ns () in
      if !last_gen > 0 then intervals := Common.ms_of_ns (now - !last_seen) :: !intervals;
      last_gen := s.Provd.generation;
      last_seen := now
    | _ -> ());
    Unix.sleepf 0.001
  in
  (tick, fun () -> !intervals)

(* One provd run into a fresh WAL dir, its oracles, and its recoveries. *)
let daemon_run tally ~workdir ~seed ~events ~recoveries =
  let dir = Common.fresh_dir workdir "ingest-wal" in
  let tick, refresh_ms = refresh_poller () in
  Common.quiesce ();
  let t0 = Common.now_ns () in
  let _, r, stop = Common.run_daemon tally (config ~seed ~dir ~events) ~tick in
  let recover_ns = List.init recoveries (fun _ -> recover tally ~dir r) in
  let wal_bytes = Common.dir_bytes dir in
  Common.remove_tree dir;
  {
    events_per_s = float_of_int r.Provd.r_events /. Common.s_of_ns (stop - t0);
    refresh_ms = refresh_ms ();
    recover_ns;
    wal_bytes;
    events = r.Provd.r_events;
  }

(* Set-up: a small daemon run that pages in code, spawns domains and
   grows the heap before anything is timed. *)
let warm_up tally ~workdir ~seed =
  ignore (daemon_run tally ~workdir ~seed ~events:250 ~recoveries:1)

let untraced ~seed ~seconds ~workdir =
  let tally = Common.tally () in
  let next_seed = Common.seed_stream seed in
  let setup_s, setup_note, () = Common.timed_setup ~reps:9 (fun () -> warm_up tally ~workdir ~seed:(next_seed ())) in
  let runs = ref [] and peak = Common.peak_after 2 in
  Common.repeat_for ~seconds ~min_steps:2 (fun n ->
      runs :=
        daemon_run tally ~workdir ~seed:(next_seed ()) ~events:events_per_session
          ~recoveries:recoveries_per_run
        :: !runs;
      Common.peak_step peak n);
  let runs = !runs in
  let rates = List.map (fun r -> r.events_per_s) runs in
  let recover_ms = List.concat_map (fun r -> List.map Common.ms_of_ns r.recover_ns) runs in
  let refresh_ms = List.concat_map (fun r -> r.refresh_ms) runs in
  let wal_bpe =
    Common.median
      (List.map (fun r -> float_of_int r.wal_bytes /. float_of_int r.events) runs)
  in
  {
    Common.correct = tally.Common.wrong = [];
    attempted = tally.Common.attempted;
    failed = tally.Common.failed;
    reported =
      [
        Common.metric "setup_s" "s" setup_s;
        Common.metric "throughput_per_s" "1/s" (Common.median rates);
        Common.metric "latency_p50_ms" "ms" (Common.median refresh_ms);
        Common.metric "latency_tail_ms" "ms" (Common.percentile 0.95 refresh_ms);
        Common.metric "peak_heap_mb" "MB" (Common.peak_mb peak);
      ];
    extra =
      [
        Common.metric "ingest_events_per_s" "1/s" (Common.median rates);
        Common.metric "recover_ms" "ms" (Common.median recover_ms);
        Common.metric "wal_bytes_per_event" "B" wal_bpe;
        Common.metric "error_ratio" "ratio" (Common.ratio tally.Common.failed tally.Common.attempted);
      ];
    notes =
      Printf.sprintf
        "daemon runs: %d x %d events; %d snapshot refreshes (latency_* are the intervals between them); %d recoveries"
        (List.length runs)
        (Daemon.Loadgen.total_events ~sessions ~events:events_per_session)
        (List.length refresh_ms) (List.length recover_ms)
      :: Printf.sprintf "events/s per daemon run: %s; recovery ms: %s"
           (String.concat " " (List.map (Printf.sprintf "%.0f") rates))
           (String.concat " " (List.map (Printf.sprintf "%.1f") recover_ms))
      :: setup_note :: tally.Common.wrong;
  }

(* --- traced replay ------------------------------------------------------

   provd has no per-stage hooks, so the traced run replays the ingest
   owner's sequence from here through the same public calls: one
   producer domain pushes the sessions' events into an Event_queue, and
   this domain repeats pop_batch -> Capture.handle_batch ->
   Matview.feed_batch -> Segmented.append_batch, publishing with
   Prov_schema.to_database every [snapshot_every] batches. *)

type replay = {
  r_events : int;
  r_ops : int;
  r_batches : int;
  r_elapsed_ns : int;
  r_rows_exported : int;
  r_publishes : int;
  r_lag_ms : float list;
  r_max_depth : int;
  r_fsyncs : int;
  r_wal_bytes : int;
  r_bufs : Tracer.t list;
  r_gc : Common.gc_point * Common.gc_point;
}

let interleave lists =
  let rec go acc lists =
    match List.filter (fun l -> l <> []) lists with
    | [] -> List.rev acc
    | live -> go (List.rev_append (List.map List.hd live) acc) (List.map List.tl live)
  in
  go [] lists

let m_fsyncs = Provkit_obs.Metrics.counter Provkit_obs.Names.wal_fsyncs

let replay ~enabled ~seed ~dir =
  let cfg = Provd.default in
  let events =
    Array.of_list
      (interleave
         (List.init sessions (fun session ->
              Daemon.Loadgen.session_events ~seed ~session ~events:events_per_session)))
  in
  let n = Array.length events in
  let pushed_at = Array.make n 0 in
  let queue = Daemon.Event_queue.create ~capacity:cfg.Provd.queue_capacity in
  let tr = Tracer.create ~enabled ~domain:0 in
  let capture, _feed = Core.Capture.observer () in
  let store = Core.Capture.store capture in
  let views, _, _ = Core.Store_views.standard () in
  let wal =
    Seg.open_ ~config:{ Seg.default_config with Seg.group_commit_ops = cfg.Provd.batch_size } dir
  in
  let pending = ref [] in
  Core.Prov_store.set_observer store (fun m -> pending := PL.op_of_mutation m :: !pending);
  let batches = ref 0 and applied = ref 0 and visible = ref 0 and ops = ref 0 in
  let rows_exported = ref 0 and publishes = ref 0 in
  let lags = Array.make n 0 in
  let publish () =
    let db = Tracer.with_span tr "snapshot.publish" (fun () -> Core.Prov_schema.to_database store) in
    let t = Common.now_ns () in
    for i = !visible to !applied - 1 do
      lags.(i) <- t - pushed_at.(i)
    done;
    visible := !applied;
    incr publishes;
    rows_exported :=
      !rows_exported
      + List.fold_left (fun acc tbl -> acc + Relstore.Table.row_count tbl) 0
          (Relstore.Database.tables db)
  in
  Common.quiesce ();
  let fsyncs0 = Provkit_obs.Metrics.value m_fsyncs in
  let gc0 = Common.gc_point () in
  let t0 = Common.now_ns () in
  let producer =
    Domain.spawn (fun () ->
        let ptr = Tracer.create ~enabled ~domain:1 in
        Array.iteri
          (fun i ev ->
            pushed_at.(i) <- Common.now_ns ();
            Tracer.with_span ptr "event_queue.push" (fun () -> Daemon.Event_queue.push queue ev))
          events;
        Daemon.Event_queue.close queue;
        ptr)
  in
  let rec loop () =
    let more =
      Tracer.with_span tr "ingest.batch" (fun () ->
          match
            Tracer.with_span tr "event_queue.pop" (fun () ->
                Daemon.Event_queue.pop_batch queue ~max:cfg.Provd.batch_size)
          with
          | [] -> false
          | batch ->
            let batch_ops =
              Tracer.with_span tr "capture" (fun () ->
                  pending := [];
                  Core.Capture.handle_batch capture batch;
                  List.rev !pending)
            in
            Tracer.with_span tr "matview" (fun () -> Matview.feed_batch views batch_ops);
            Tracer.with_span tr "wal" (fun () -> Seg.append_batch wal batch_ops);
            incr batches;
            applied := !applied + List.length batch;
            ops := !ops + List.length batch_ops;
            if !batches mod cfg.Provd.snapshot_every = 0 then publish ();
            true)
    in
    if more then loop ()
  in
  loop ();
  publish ();
  Seg.durable wal;
  Seg.close wal;
  let elapsed = Common.now_ns () - t0 in
  let gc1 = Common.gc_point () in
  let ptr = Domain.join producer in
  {
    r_events = !applied;
    r_ops = !ops;
    r_batches = !batches;
    r_elapsed_ns = elapsed;
    r_rows_exported = !rows_exported;
    r_publishes = !publishes;
    r_lag_ms = Array.to_list (Array.map Common.ms_of_ns lags);
    r_max_depth = (Daemon.Event_queue.stats queue).Daemon.Event_queue.max_depth;
    r_fsyncs = Provkit_obs.Metrics.value m_fsyncs - fsyncs0;
    r_wal_bytes = Common.dir_bytes dir;
    r_bufs = [ tr; ptr ];
    r_gc = (gc0, gc1);
  }

let traced ~seed ~seconds:_ ~workdir ~trace_path =
  let tally = Common.tally () in
  let next_seed = Common.seed_stream seed in
  warm_up tally ~workdir ~seed:(next_seed ());
  let run_seed = next_seed () in
  let provd = daemon_run tally ~workdir ~seed:run_seed ~events:events_per_session ~recoveries:0 in
  let rate r = float_of_int r.r_events /. Common.s_of_ns r.r_elapsed_ns in
  let expected = Daemon.Loadgen.total_events ~sessions ~events:events_per_session in
  (* One replay into a fresh WAL dir, checked, then recovered. *)
  let replay_checked ~enabled =
    let dir = Common.fresh_dir workdir "replay-wal" in
    let r = replay ~enabled ~seed:run_seed ~dir in
    Common.attempt tally expected;
    Common.fail tally (max 0 (expected - r.r_events));
    Common.check tally (r.r_events = expected) "replay applied a different number of events";
    let t0 = Common.now_ns () in
    let rc = Seg.recover ~dir () in
    let recover_ns = Common.now_ns () - t0 in
    Common.checked_op tally (rc.Seg.ops_applied = r.r_ops && not rc.Seg.truncated)
      "replayed WAL does not recover every appended op";
    Common.remove_tree dir;
    (r, rc, recover_ns)
  in
  (* Untraced and traced replays alternate; each side's faster replay
     gives trace.overhead_pct, and the last traced one the layer metrics. *)
  let plain1, _, _ = replay_checked ~enabled:false in
  let traced1, _, _ = replay_checked ~enabled:true in
  let plain2, _, _ = replay_checked ~enabled:false in
  let rp, rc, recover_ns = replay_checked ~enabled:true in
  let plain_rate = Float.max (rate plain1) (rate plain2) in
  let traced_rate = Float.max (rate traced1) (rate rp) in
  let spans = Tracer.spans rp.r_bufs in
  let agg = Tracer.aggregate spans in
  let tot name = (Tracer.total agg name).Tracer.total_ns in
  (* The stages are the batch span's direct children, so their sum is
     the batch total minus the batch span's own self time. *)
  let batch = Tracer.total agg "ingest.batch" in
  let stage_share = Common.ratio (batch.Tracer.total_ns - batch.Tracer.self_ns) batch.Tracer.total_ns in
  Common.check tally (stage_share >= 0.95 && stage_share <= 1.0)
    (Printf.sprintf "stage spans cover %.1f%% of the batch span (need >= 95%%)"
       (100.0 *. stage_share));
  Tracer.write_jsonl ~path:trace_path ~run_id:(Printf.sprintf "ingest-%d" seed) spans;
  let per = Common.ratio in
  let gc0, gc1 = rp.r_gc in
  let layer =
    [
      Common.metric "event_queue.push_wait_ms" "ms" (Common.ms_of_ns (tot "event_queue.push"));
      Common.metric "event_queue.pop_wait_ms" "ms" (Common.ms_of_ns (tot "event_queue.pop"));
      Common.metric "event_queue.max_depth" "count" (float_of_int rp.r_max_depth);
      Common.metric "capture.us_per_event" "us" (per (tot "capture") rp.r_events /. 1e3);
      Common.metric "capture.ops_per_event" "count" (per rp.r_ops rp.r_events);
      Common.metric "matview.ns_per_op" "ns" (per (tot "matview") rp.r_ops);
      Common.metric "wal.ns_per_op" "ns" (per (tot "wal") rp.r_ops);
      Common.metric "wal.bytes_per_op" "B" (per rp.r_wal_bytes rp.r_ops);
      Common.metric "wal.fsyncs_per_batch" "count" (per rp.r_fsyncs rp.r_batches);
      Common.metric "wal.recover_ns_per_op" "ns" (per recover_ns rc.Seg.ops_applied);
      Common.metric "snapshot.publish_ms" "ms" (Tracer.mean_us agg "snapshot.publish" /. 1e3);
      Common.metric "snapshot.ns_per_row" "ns" (per (tot "snapshot.publish") rp.r_rows_exported);
      Common.metric "snapshot.publish_share" "ratio" (Common.ratio (tot "snapshot.publish") rp.r_elapsed_ns);
      Common.metric "snapshot.visible_lag_ms_p99" "ms" (Common.percentile 0.99 rp.r_lag_ms);
    ]
    @ Common.gc_metrics ~before:gc0 ~after:gc1 ~units:rp.r_events
    @ [
        Common.metric "trace.overhead_pct" "%" (100.0 *. ((plain_rate /. traced_rate) -. 1.0));
        Common.metric "trace.stage_sum_share" "ratio" stage_share;
        Common.metric "trace.replay_events_per_s" "1/s" (rate rp);
        Common.metric "trace.provd_events_per_s" "1/s" provd.events_per_s;
      ]
  in
  ( tally,
    layer,
    agg,
    [
      Printf.sprintf "events/s: provd (untraced) %.0f | replays untraced %.0f / %.0f, traced %.0f / %.0f"
        provd.events_per_s (rate plain1) (rate plain2) (rate traced1) (rate rp);
      Printf.sprintf "stage spans / batch span = %.2f%% over %d batches, %d publishes"
        (100.0 *. stage_share) rp.r_batches rp.r_publishes;
    ] )
