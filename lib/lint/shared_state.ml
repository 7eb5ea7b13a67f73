(* The shared-mutable-state manifest: every toplevel [ref], [Hashtbl],
   array or mutable-record binding under lib/, with the guarding
   strategy a future concurrent [provd] must apply before threads touch
   it.  The shared-state-registry check fails the build when a global
   mutable binding is missing from this list (and when a listed entry no
   longer exists), so the inventory ROADMAP item 3 needs cannot rot.

   Guards:
   - [Read_only_after_init]: written once during module initialization
     or explicit setup, then only read — safe to share unguarded once
     published.
   - [Single_writer]: mutated, but only ever from the single control
     thread (CLI command loop, test harness); concurrent readers would
     need a publication barrier but no lock.
   - [Needs_lock]: mutated on hot paths that any thread may execute;
     provd must wrap access in a mutex (or make it thread-local). *)

type guard = Read_only_after_init | Single_writer | Needs_lock

type entry = {
  ss_file : string;  (* root-relative defining file *)
  ss_name : string;  (* binding name, nested-module path dotted in *)
  ss_guard : guard;
  ss_why : string;  (* one-line justification of the guard choice *)
}

let guard_name = function
  | Read_only_after_init -> "ReadOnlyAfterInit"
  | Single_writer -> "SingleWriter"
  | Needs_lock -> "NeedsLock"

let e ss_file ss_name ss_guard ss_why = { ss_file; ss_name; ss_guard; ss_why }

let manifest =
  [
    (* util *)
    e "lib/util/timing.ml" "gtod_last" Needs_lock
      "monotonic-clamp fallback state; any thread reading the clock races the clamp";
    e "lib/util/faulty_io.ml" "fault_hook" Single_writer
      "installed once by the test harness / flight recorder before I/O starts";
    e "lib/util/faulty_io.ml" "sync_hook" Single_writer
      "installed by a test before the syncs it observes, then only read (also by committer threads)";
    (* webmodel — constant palettes; arrays are mutable-typed, so they
       belong in the audit even though nothing ever writes them *)
    e "lib/webmodel/topic.ml" "onsets" Read_only_after_init "constant syllable palette";
    e "lib/webmodel/topic.ml" "nuclei" Read_only_after_init "constant syllable palette";
    e "lib/webmodel/topic.ml" "codas" Read_only_after_init "constant syllable palette";
    e "lib/webmodel/topic.ml" "default_names" Read_only_after_init "constant topic-name palette";
    e "lib/webmodel/web_graph.ml" "ambiguous_palette" Read_only_after_init
      "constant ambiguous-word palette";
    (* obs *)
    e "lib/obs/metrics.ml" "on" Single_writer
      "PROV_OBS on/off switch: initialized from the environment, flipped only by tests";
    e "lib/obs/metrics.ml" "counters" Needs_lock
      "hot-path increments from every instrumented subsystem";
    e "lib/obs/metrics.ml" "gauges" Needs_lock "hot-path sets from every instrumented subsystem";
    e "lib/obs/metrics.ml" "histograms" Needs_lock
      "hot-path observations from every instrumented subsystem";
    e "lib/obs/trace.ml" "ring" Needs_lock
      "span Ring written on every span end; guarded by Trace.lock";
    e "lib/obs/trace.ml" "sink" Single_writer "JSONL sink installed by the CLI before tracing";
    e "lib/obs/trace.ml" "id_rng" Needs_lock
      "id stream advanced on every span start; guarded by Trace.lock";
    e "lib/obs/flight.ml" "ring" Needs_lock
      "incident Ring written from crash paths anywhere; guarded by Flight.lock";
    e "lib/obs/flight.ml" "total" Needs_lock
      "incident counter paired with the ring; guarded by Flight.lock";
    e "lib/obs/flight.ml" "context" Single_writer
      "ambient context set by the CLI entry point before work starts";
    e "lib/obs/timeseries.ml" "interval" Single_writer "snapshot cadence config knob";
    e "lib/obs/timeseries.ml" "pulse_count" Needs_lock
      "ticked by capture and WAL ingest on every event; guarded by Timeseries.pulse_lock";
    e "lib/obs/timeseries.ml" "observers" Single_writer
      "point observers (alert engine, telemetry journal) installed at startup, then only read";
    e "lib/obs/alert.ml" "rules" Single_writer
      "rule registry built by the CLI / tests before points flow";
    e "lib/obs/alert.ml" "log" Needs_lock
      "transition Ring appended from the pulse path; guarded by the Timeseries ring lock, \
       which Timeseries.record holds while it runs the alert observer";
    e "lib/obs/alert.ml" "log_total" Needs_lock "transition counter paired with the log";
    e "lib/obs/alert.ml" "prev_point" Needs_lock
      "previous-point cursor advanced on every recorded point";
    e "lib/obs/alert.ml" "installed" Single_writer "observer-attached latch, set once";
    e "lib/obs/alert.ml" "replaying" Single_writer
      "journal-replay quiet flag, toggled only around replay_history";
    e "lib/obs/alert.ml" "transition_hooks" Single_writer
      "transition hooks (telemetry journal) installed at startup, then only read";
    e "lib/obs/health.ml" "checks" Single_writer
      "check registry built by subsystem wiring before health runs";
    (* relstore *)
    e "lib/relstore/table.ml" "next_uid" Needs_lock
      "process-unique table ids; tables may be created from any domain, so the counter is an Atomic";
    e "lib/relstore/stats.ml" "catalog" Needs_lock
      "analyze writes and planner reads race under concurrent queries; guarded by Stats.catalog_lock";
    e "lib/relstore/slowlog.ml" "threshold" Single_writer "config knob set by the CLI";
    e "lib/relstore/slowlog.ml" "ring" Needs_lock
      "fingerprint-keyed slow-query Ring fed by the executor funnel; guarded by Slowlog.lock";
    e "lib/relstore/query_exec.ml" "cache_enabled" Single_writer
      "cache on/off knob set by the CLI before queries run";
    e "lib/relstore/query_exec.ml" "matview_sources" Single_writer
      "view registrations happen during setup, reads on the query path";
    e "lib/relstore/query_exec.ml" "query_span_threshold_ns" Read_only_after_init
      "span threshold, set once by provctl profile before its workload runs";
    (* daemon *)
    e "lib/daemon/worker_pool.ml" "spare" Needs_lock
      "the parked worker domain, taken by provd start and returned when its ingest job ends; guarded by Worker_pool.lock";
    (* lint *)
    e "lib/lint/source.ml" "parse_cache" Single_writer
      "parse-once memo; provlint is a single-threaded batch tool";
  ]

let find ~file ~name =
  List.find_opt (fun en -> en.ss_file = file && en.ss_name = name) manifest
