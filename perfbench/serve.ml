(* Workload [serve]: snapshot reads under ingest, open loop.

   provd ingests one session (no WAL, default analyze cadence, no read
   workers of its own) while this domain reads [Provd.current_snapshot]
   on a fixed schedule of [rate] reads per second, cycling provd's four
   read shapes.  Each read is timed from when it was due, so a stall
   delays every read scheduled behind it.  Daemon runs repeat back to
   back until the run's time is up. *)

module Provd = Daemon.Provd
module P = Relstore.Predicate
module Q = Relstore.Query_exec
module Value = Relstore.Value

let events_per_run = 5_000
let rate = 400.0

(* One read in ten is recomputed by the full-scan oracle; the schedule
   is paused while it runs, so checking never makes a read late. *)
let oracle_every = 10

let block = 1000

(* The heap grows by ~20 MB with every daemon run, as state outlives each
   provd run in the process, so the peak is read after a fixed number of
   runs (a 30 s run fits 15-25): read at the end, it grew with how many
   runs a fast or slow host fits in. *)
let peak_runs = 12

let config ~seed ~events =
  {
    Provd.default with
    Provd.sessions = 1;
    events_per_session = events;
    read_workers = 0;
    read_mix = 0.0;
    compact_every = 0;
    seed;
    wal_dir = None;
  }

type shape = Group_count | Range_count | Window_count | Scan_count

let shape_name = function
  | Group_count -> "query_exec.group_count"
  | Range_count -> "query_exec.range_count"
  | Window_count -> "query_exec.window_count"
  | Scan_count -> "query_exec.scan_count"

type read = { shape : shape; table : string; where : P.t }
type answer = Groups of (Value.t * int) list | Count of int

(* provd's four read shapes, cycled in order; the range bounds are drawn
   from the seed over the snapshot's id range. *)
let make_read rng k (snap : Provd.snapshot) =
  let span = max 1 snap.Provd.seq in
  match k mod 4 with
  | 0 -> { shape = Group_count; table = Core.Prov_schema.node_table; where = P.True }
  | 1 ->
    let cut = 1 + Provkit_util.Prng.int rng span in
    { shape = Range_count; table = Core.Prov_schema.edge_table; where = P.Cmp (P.Lt, "src", Value.Int cut) }
  | 2 ->
    let lo = Provkit_util.Prng.int rng span in
    {
      shape = Window_count;
      table = Core.Prov_schema.edge_table;
      where = P.And [ P.Cmp (P.Gt, "src", Value.Int lo); P.Cmp (P.Le, "src", Value.Int (lo + 64)) ];
    }
  | _ ->
    { shape = Scan_count; table = Core.Prov_schema.node_table; where = P.Cmp (P.Ge, "time", Value.Int 0) }

let execute r db =
  let tbl = Relstore.Database.table db r.table in
  match r.shape with
  | Group_count -> Groups (Q.group_count ~by:"kind" tbl)
  | Range_count | Window_count | Scan_count -> Count (Q.count ~where:r.where tbl)

(* The oracle: the same read by a full scan (Table.fold + Predicate.eval)
   on the same pinned snapshot. *)
let oracle r db =
  let tbl = Relstore.Database.table db r.table in
  let schema = Relstore.Table.schema tbl in
  match r.shape with
  | Group_count ->
    let h = Hashtbl.create 16 in
    Relstore.Table.iter tbl (fun _ row ->
        let k = Relstore.Row.get schema row "kind" in
        Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)));
    Groups (Hashtbl.fold (fun k n acc -> (k, n) :: acc) h [])
  | Range_count | Window_count | Scan_count ->
    Count
      (Relstore.Table.fold tbl ~init:0 ~f:(fun acc _ row ->
           if P.eval r.where schema row then acc + 1 else acc))

let same_answer a b =
  match (a, b) with
  | Count x, Count y -> x = y
  | Groups x, Groups y ->
    let norm l = List.sort (fun (k1, _) (k2, _) -> Value.compare k1 k2) l in
    List.equal (fun (k1, n1) (k2, n2) -> Value.equal k1 k2 && n1 = n2) (norm x) (norm y)
  | _ -> false

type counters = {
  scanned : int;
  returned : int;
  hits : int;
  misses : int;
  full : int;
  index : int;
}

let counter = Provkit_obs.Metrics.counter

let c_scanned = counter Provkit_obs.Names.query_rows_scanned
let c_returned = counter Provkit_obs.Names.query_rows_returned
let c_hits = counter Provkit_obs.Names.query_cache_hits
let c_misses = counter Provkit_obs.Names.query_cache_misses
let c_full = counter Provkit_obs.Names.query_full_scan
let c_eq = counter Provkit_obs.Names.query_index_eq
let c_range = counter Provkit_obs.Names.query_index_range

let read_counters () =
  let v = Provkit_obs.Metrics.value in
  {
    scanned = v c_scanned;
    returned = v c_returned;
    hits = v c_hits;
    misses = v c_misses;
    full = v c_full;
    index = v c_eq + v c_range;
  }

let diff a b =
  {
    scanned = b.scanned - a.scanned;
    returned = b.returned - a.returned;
    hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    full = b.full - a.full;
    index = b.index - a.index;
  }

let add a b =
  {
    scanned = a.scanned + b.scanned;
    returned = a.returned + b.returned;
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    full = a.full + b.full;
    index = a.index + b.index;
  }

let zero = { scanned = 0; returned = 0; hits = 0; misses = 0; full = 0; index = 0 }

(* Everything one pass (several daemon runs) measured. *)
type pass = {
  mutable latency_ms : float list;  (** from due time to answer *)
  mutable service_ms : float list;  (** from issue to answer *)
  mutable late_ms : float list;  (** how late the generator issued *)
  mutable rates : float list;  (** provd events/s per daemon run *)
  mutable reads : int;
  mutable deltas : counters;
  peak : Common.peak;
}

let new_pass () =
  {
    latency_ms = [];
    service_ms = [];
    late_ms = [];
    rates = [];
    reads = 0;
    deltas = zero;
    peak = Common.peak_after peak_runs;
  }

(* One daemon run with the open-loop reader on this domain. *)
let daemon_run tally pass tr rng ~seed ~events ~k =
  (* Each daemon run stands for a fresh provd: drop the process-wide
     statistics catalog and result cache the previous run's snapshots
     filled, then start from a compacted heap. *)
  Relstore.Stats.clear ();
  Relstore.Query_exec.clear_cache ();
  Common.quiesce ();
  let interval = int_of_float (1e9 /. rate) in
  let t0 = Common.now_ns () in
  let due = ref t0 in
  let tick t =
    let now = Common.now_ns () in
    if now < !due then Unix.sleepf (float_of_int (!due - now) /. 1e9)
    else begin
      (match Provd.current_snapshot t with
      | None -> ()
      | Some snap ->
        let r = make_read rng !k snap in
        let c0 = if tr.Tracer.enabled then read_counters () else zero in
        let issued = Common.now_ns () in
        let ans =
          match Tracer.with_span tr (shape_name r.shape) (fun () -> execute r snap.Provd.db) with
          | a -> Some a
          | exception _ -> None
        in
        let done_ = Common.now_ns () in
        if tr.Tracer.enabled then pass.deltas <- add pass.deltas (diff c0 (read_counters ()));
        pass.latency_ms <- Common.ms_of_ns (done_ - !due) :: pass.latency_ms;
        pass.service_ms <- Common.ms_of_ns (done_ - issued) :: pass.service_ms;
        pass.late_ms <- Common.ms_of_ns (issued - !due) :: pass.late_ms;
        pass.reads <- pass.reads + 1;
        incr k;
        (match ans with
        | None -> Common.checked_op tally false "a read raised"
        | Some a when Provkit_util.Prng.int rng oracle_every = 0 ->
          let c0 = Common.now_ns () in
          Common.checked_op tally (same_answer a (oracle r snap.Provd.db))
            "a read differs from the full-scan oracle";
          due := !due + (Common.now_ns () - c0)
        | Some _ -> Common.attempt tally 1));
      due := !due + interval
    end
  in
  let t, r, stop = Common.run_daemon tally (config ~seed ~events) ~tick in
  (match Provd.current_snapshot t with
  | Some snap when tr.Tracer.enabled ->
    Tracer.with_span tr "stats.analyze" (fun () -> ignore (Relstore.Stats.analyze_database snap.Provd.db))
  | _ -> ());
  pass.rates <- (float_of_int r.Provd.r_events /. Common.s_of_ns (stop - t0)) :: pass.rates

let run_pass tally tr rng next_seed ~seconds ~events =
  let pass = new_pass () in
  let k = ref 0 in
  Common.repeat_for ~seconds ~min_steps:2 (fun n ->
      daemon_run tally pass tr rng ~seed:(next_seed ()) ~events ~k;
      Common.peak_step pass.peak n);
  pass

let setup tally rng next_seed =
  let warm = new_pass () in
  let k = ref 0 in
  daemon_run tally warm Tracer.disabled rng ~seed:(next_seed ()) ~events:300 ~k

let untraced ~seed ~seconds ~workdir:_ =
  let tally = Common.tally () in
  let next_seed = Common.seed_stream seed in
  let rng = Provkit_util.Prng.create (seed + 1) in
  let setup_s, setup_note, () = Common.timed_setup ~reps:9 (fun () -> setup tally rng next_seed) in
  let p = run_pass tally Tracer.disabled rng next_seed ~seconds ~events:events_per_run in
  let events_per_s = Common.median p.rates in
  (* Read latency percentiles are taken per block of [block] consecutive
     reads (so a p99 has ten reads beyond it) and the median over blocks
     reported, so a burst of host noise that stalls a few blocks does not
     move them. *)
  let blocks = Common.blocks block (List.rev p.latency_ms) in
  let per_block f = Common.median (List.map f blocks) in
  let p50 = per_block Common.median and p99 = per_block (Common.percentile 0.99) in
  {
    Common.correct = tally.Common.wrong = [];
    attempted = tally.Common.attempted;
    failed = tally.Common.failed;
    reported =
      [
        Common.metric "setup_s" "s" setup_s;
        Common.metric "throughput_per_s" "1/s" events_per_s;
        Common.metric "latency_p50_ms" "ms" p50;
        Common.metric "latency_tail_ms" "ms" p99;
        Common.metric "peak_heap_mb" "MB" (Common.peak_mb p.peak);
      ];
    extra =
      [
        Common.metric "ingest_events_per_s" "1/s" events_per_s;
        Common.metric "read_p50_ms" "ms" p50;
        Common.metric "read_p99_ms" "ms" p99;
        Common.metric "generator_late_p99_ms" "ms" (Common.percentile 0.99 p.late_ms);
        Common.metric "error_ratio" "ratio" (Common.ratio tally.Common.failed tally.Common.attempted);
      ];
    notes =
      Printf.sprintf "%d reads at %.0f/s over %d daemon runs of %d events (latency_* are reads, from due time)"
        p.reads rate (List.length p.rates) events_per_run
      :: Printf.sprintf "events/s per daemon run: %s"
           (String.concat " " (List.rev_map (Printf.sprintf "%.0f") p.rates))
      :: Printf.sprintf "read p99 ms per block of %d: %s" block
           (String.concat " " (List.map (fun b -> Printf.sprintf "%.1f" (Common.percentile 0.99 b)) blocks))
      :: setup_note :: tally.Common.wrong;
  }

let traced ~seed ~seconds ~workdir:_ ~trace_path =
  let tally = Common.tally () in
  let next_seed = Common.seed_stream seed in
  let rng = Provkit_util.Prng.create (seed + 1) in
  setup tally rng next_seed;
  (* Untraced and traced passes alternate; each side's faster pass gives
     trace.overhead_pct, and the traced passes give the layer metrics. *)
  let tr = Tracer.create ~enabled:true ~domain:0 in
  let pass t = run_pass tally t rng next_seed ~seconds:(seconds /. 4.0) ~events:events_per_run in
  let plain1 = pass Tracer.disabled in
  let traced1 = pass tr in
  let plain2 = pass Tracer.disabled in
  let gc0 = Common.gc_point () in
  let traced2 = pass tr in
  let gc1 = Common.gc_point () in
  let spans = Tracer.spans [ tr ] in
  let agg = Tracer.aggregate spans in
  Tracer.write_jsonl ~path:trace_path ~run_id:(Printf.sprintf "serve-%d" seed) spans;
  let d = add traced1.deltas traced2.deltas in
  let events = List.length traced2.rates * Daemon.Loadgen.total_events ~sessions:1 ~events:events_per_run in
  let service p = Common.mean p.service_ms in
  let plain_ms = Float.min (service plain1) (service plain2) in
  let traced_ms = Float.min (service traced1) (service traced2) in
  let layer =
    List.map
      (fun s -> Common.metric (shape_name s ^ "_us") "us" (Tracer.mean_us agg (shape_name s)))
      [ Group_count; Range_count; Window_count; Scan_count ]
    @ [
        Common.metric "query_exec.rows_scanned_per_returned" "ratio" (Common.ratio d.scanned d.returned);
        Common.metric "query_exec.index_plan_share" "ratio" (Common.ratio d.index (d.index + d.full));
        Common.metric "query_cache.hit_ratio" "ratio" (Common.ratio d.hits (d.hits + d.misses));
        Common.metric "stats.analyze_ms" "ms" (Tracer.mean_us agg "stats.analyze" /. 1e3);
      ]
    @ Common.gc_metrics ~before:gc0 ~after:gc1 ~units:events
    @ [ Common.metric "trace.overhead_pct" "%" (100.0 *. ((traced_ms /. plain_ms) -. 1.0)) ]
  in
  ( tally,
    layer,
    agg,
    [
      Printf.sprintf "mean read service: untraced passes %.3f / %.3f ms, traced passes %.3f / %.3f ms"
        (service plain1) (service plain2) (service traced1) (service traced2);
    ] )
