(* Shared helpers: the benchmark's own clock, order statistics, the
   result record every workload returns, and scratch directories. *)

let now_ns () = Int64.to_int (Provkit_util.Timing.now_ns ())
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

(* Nearest-rank percentile over unsorted samples; [p] in (0, 1]. *)
let percentile p samples =
  match samples with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list samples in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median samples = percentile 0.5 samples

let mean samples =
  match samples with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples)

(* Splits samples, in order, into blocks of [n]; a short last block is
   dropped unless it is the only one. *)
let blocks n samples =
  let rec go acc cur k = function
    | [] -> List.rev (if acc = [] && cur <> [] then [ List.rev cur ] else acc)
    | x :: rest ->
      if k + 1 = n then go (List.rev (x :: cur) :: acc) [] 0 rest else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 samples

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* What one invocation measured.  [reported] is exactly the metric set
   the final JSON line carries (end-to-end untraced, per-layer traced);
   [extra] is printed for people and never compared. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  reported : metric list;
  extra : metric list;
  notes : string list;
}

(* Failure accounting shared by the workloads: every operation the
   benchmark issues is attempted once and either succeeds or fails; any
   oracle mismatch makes the whole run incorrect. *)
type tally = { mutable attempted : int; mutable failed : int; mutable wrong : string list }

let tally () = { attempted = 0; failed = 0; wrong = [] }
let attempt t n = t.attempted <- t.attempted + n
let fail t n = t.failed <- t.failed + n

let check t ok what =
  if (not ok) && List.length t.wrong < 8 then t.wrong <- what :: t.wrong

(* One operation whose result is checked: a mismatch both fails the
   operation and marks the run incorrect. *)
let checked_op t ok what =
  attempt t 1;
  if not ok then fail t 1;
  check t ok what

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0)

(* The heap peak over a fixed amount of work: read once [steps] steps
   have run (or at the end, if fewer ran).  A peak read at the end of a
   timed loop would grow with the number of steps a fast or slow host
   fits in, not with the program. *)
type peak = { steps : int; mutable mb : float option }

let peak_after steps = { steps; mb = None }
let peak_step p n = if n + 1 = p.steps then p.mb <- Some (peak_heap_mb ())
let peak_mb p = match p.mb with Some mb -> mb | None -> peak_heap_mb ()

(* Runs a set-up step [reps] times; returns the median wall time in
   seconds, a note listing every time, and the last run's value for the
   workload to use. *)
let timed_setup ~reps f =
  let rec go i times last =
    if i = reps then
      ( median times,
        "set-up s: " ^ String.concat " " (List.rev_map (Printf.sprintf "%.4f") times),
        Option.get last )
    else begin
      let t0 = now_ns () in
      let v = f () in
      go (i + 1) (s_of_ns (now_ns () - t0) :: times) (Some v)
    end
  in
  go 0 [] None

(* --- scratch directories (always under the run's work dir) ---------- *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir parent name =
  let dir = Filename.concat parent name in
  remove_tree dir;
  Sys.mkdir dir 0o755;
  dir

let dir_bytes dir =
  Array.fold_left
    (fun acc e -> acc + (Unix.stat (Filename.concat dir e)).Unix.st_size)
    0 (Sys.readdir dir)

(* Per-iteration seeds drawn from the workload seed, so the same
   [--seed] always yields the same inputs. *)
let seed_stream seed =
  let rng = Provkit_util.Prng.create seed in
  fun () -> Provkit_util.Prng.int rng 1_000_000_000

(* Runs [step] repeatedly until [seconds] have passed, never starting a
   step the average so far says would end past the deadline (the first
   [min_steps] always run). *)
let repeat_for ~seconds ~min_steps step =
  let t0 = now_ns () in
  let budget = int_of_float (seconds *. 1e9) in
  let rec go n =
    let spent = now_ns () - t0 in
    let avg = if n = 0 then 0 else spent / n in
    if n < min_steps || spent + avg <= budget then begin
      step n;
      go (n + 1)
    end
  in
  go 0

let sum_counts l = List.fold_left (fun acc (_, n) -> acc + n) 0 l

(* Runs a provd instance to completion while [tick] is called in a loop
   on this domain; a helper domain blocks in [Provd.wait].  Then checks
   the run: every generated event was applied, and the final snapshot's
   node and edge row counts equal the Store_views totals in the report.
   Returns the handle, the report, and the time the wait returned. *)
let run_daemon tally (cfg : Daemon.Provd.config) ~tick =
  let module Provd = Daemon.Provd in
  let finished = Atomic.make false in
  let t = Provd.start cfg in
  let waiter =
    Domain.spawn (fun () ->
        let r = Provd.wait t in
        let stop = now_ns () in
        Atomic.set finished true;
        (r, stop))
  in
  while not (Atomic.get finished) do
    tick t
  done;
  let r, stop = Domain.join waiter in
  let expected =
    Daemon.Loadgen.total_events ~sessions:cfg.Provd.sessions ~events:cfg.Provd.events_per_session
  in
  attempt tally expected;
  fail tally (max 0 (expected - r.Provd.r_events));
  check tally (r.Provd.r_events = expected) "applied events differ from Loadgen.total_events";
  (match Provd.current_snapshot t with
  | None -> check tally false "no snapshot published"
  | Some snap ->
    let rows name = Relstore.Table.row_count (Relstore.Database.table snap.Provd.db name) in
    check tally
      (rows Core.Prov_schema.node_table = sum_counts r.Provd.r_node_kinds
      && rows Core.Prov_schema.edge_table = sum_counts r.Provd.r_edge_kinds)
      "final snapshot row counts differ from the Store_views totals");
  (t, r, stop)

(* Each timed step starts from a compacted heap, so GC debt left by the
   previous step is not charged to it. *)
let quiesce () = Gc.compact ()

(* --- GC deltas (the calling domain's view of the runtime) ----------- *)

type gc_point = { minor : int; major : int; promoted : float }

let gc_point () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_collections; major = s.Gc.major_collections; promoted = s.Gc.promoted_words }

let gc_metrics ~before ~after ~units =
  let u = float_of_int (max 1 units) in
  [
    metric "gc.minor_per_kevent" "count" (float_of_int (after.minor - before.minor) *. 1000.0 /. u);
    metric "gc.major_collections" "count" (float_of_int (after.major - before.major));
    metric "gc.promoted_words_per_event" "words" ((after.promoted -. before.promoted) /. u);
  ]
