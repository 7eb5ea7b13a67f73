(* The observability registry: histogram quantile error bounds across
   distribution shapes, counter monotonicity/saturation, the global off
   switch, snapshot determinism, and the trace ring's bounded-memory
   contract. *)

module M = Provkit_obs.Metrics
module T = Provkit_obs.Trace
module Names = Provkit_obs.Names

(* Metric names used only by this suite; the @obs-check lint covers
   lib/ and bin/, so test-local names need not be in [Names.all]. *)
let h_name = "test.obs.latency"

let with_enabled f =
  let was = M.enabled () in
  M.set_enabled true;
  Fun.protect ~finally:(fun () -> M.set_enabled was) f

(* --- quantile error bounds ------------------------------------------- *)

(* The documented contract: [quantile h q] returns the inclusive upper
   bound of the bucket holding the rank-ceil(q*n) order statistic, so
   for true order statistic [x]:  x <= estimate <= x * (1 + 1/16) + 1. *)
let check_quantile_brackets name samples =
  with_enabled @@ fun () ->
  M.reset ();
  let h = M.histogram h_name in
  Array.iter (M.observe h) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  (* observe clamps negatives to zero; mirror that in the oracle *)
  let sorted = Array.map (fun v -> max 0 v) sorted in
  let n = Array.length sorted in
  List.iter
    (fun q ->
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let true_q = sorted.(min (n - 1) (rank - 1)) in
      let est = M.quantile h q in
      let lo = float_of_int true_q in
      let hi = (lo *. (1.0 +. (1.0 /. 16.0))) +. 1.0 in
      if not (est >= lo && est <= hi) then
        Alcotest.failf "%s: q=%.2f estimate %.1f outside [%.1f, %.1f] (n=%d)" name q
          est lo hi n)
    [ 0.5; 0.9; 0.95; 0.99; 1.0 ]

let test_quantiles_constant () =
  check_quantile_brackets "constant" (Array.make 500 1_000);
  check_quantile_brackets "constant-zero" (Array.make 100 0);
  check_quantile_brackets "constant-one" (Array.make 100 1)

let test_quantiles_bimodal () =
  let rng = Test_seed.prng ~salt:71 in
  let samples =
    Array.init 2_000 (fun _ ->
        if Provkit_util.Prng.bool rng then 800 + Provkit_util.Prng.int rng 100
        else 1_000_000 + Provkit_util.Prng.int rng 50_000)
  in
  check_quantile_brackets "bimodal" samples

let test_quantiles_zipf () =
  let rng = Test_seed.prng ~salt:72 in
  let z = Provkit_util.Zipf.create ~n:10_000 ~s:1.1 in
  let samples =
    Array.init 3_000 (fun _ -> 100 * Provkit_util.Zipf.sample z rng)
  in
  check_quantile_brackets "zipf" samples

let test_bucket_roundtrip () =
  let rng = Test_seed.prng ~salt:73 in
  for _ = 1 to 10_000 do
    let v =
      let magnitude = Provkit_util.Prng.int rng 40 in
      Provkit_util.Prng.int rng (max 2 (1 lsl (min 60 magnitude)))
    in
    let lo, hi = M.bucket_bounds (M.bucket_of_value v) in
    if not (lo <= v && v <= hi) then
      Alcotest.failf "value %d outside its bucket bounds [%d, %d]" v lo hi;
    (* log-linear width bound: buckets past the linear region are never
       wider than lo/16 + 1 *)
    if lo >= 16 && hi - lo > (lo / 16) + 1 then
      Alcotest.failf "bucket [%d, %d] wider than the 1/16 contract" lo hi
  done

(* --- counters --------------------------------------------------------- *)

let test_counter_saturation () =
  with_enabled @@ fun () ->
  M.reset ();
  let c = M.counter "test.obs.saturating" in
  M.add c max_int;
  Alcotest.(check int) "reaches max_int" max_int (M.value c);
  M.add c max_int;
  Alcotest.(check int) "saturates instead of wrapping" max_int (M.value c);
  M.incr c;
  Alcotest.(check int) "incr at ceiling stays put" max_int (M.value c)

let test_counter_monotonic () =
  with_enabled @@ fun () ->
  M.reset ();
  let c = M.counter "test.obs.monotonic" in
  M.add c 5;
  M.add c (-3);
  M.add c 0;
  Alcotest.(check int) "non-positive deltas ignored" 5 (M.value c)

let test_off_switch () =
  let was = M.enabled () in
  Fun.protect ~finally:(fun () -> M.set_enabled was) @@ fun () ->
  M.set_enabled true;
  M.reset ();
  let c = M.counter "test.obs.switch" in
  let h = M.histogram "test.obs.switch.hist" in
  M.set_enabled false;
  M.incr c;
  M.add c 10;
  M.observe h 42;
  T.record "test.span" ~start_ns:0L ~dur_ns:1L;
  let spans_before = M.counter_value Names.trace_spans in
  M.set_enabled true;
  Alcotest.(check int) "counter untouched while off" 0 (M.value c);
  Alcotest.(check int) "histogram untouched while off" 0 (M.hist_count h);
  M.set_enabled false;
  T.record "test.span" ~start_ns:0L ~dur_ns:1L;
  M.set_enabled true;
  Alcotest.(check int) "tracer obeys the switch" spans_before
    (M.counter_value Names.trace_spans)

(* --- snapshots --------------------------------------------------------- *)

let seeded_workload salt =
  let rng = Test_seed.prng ~salt in
  let c = M.counter "test.obs.snap.counter" in
  let g = M.gauge "test.obs.snap.gauge" in
  let h = M.histogram "test.obs.snap.hist" in
  for _ = 1 to 500 do
    M.add c (Provkit_util.Prng.int rng 10);
    M.observe h (Provkit_util.Prng.int rng 1_000_000)
  done;
  M.set_gauge g (Provkit_util.Prng.float rng 100.0)

let filter_test snap =
  let mine (name, _) = String.length name >= 4 && String.sub name 0 4 = "test" in
  ( List.filter mine snap.M.snap_counters,
    List.filter mine snap.M.snap_gauges,
    List.filter mine snap.M.snap_histograms )

let test_snapshot_determinism () =
  with_enabled @@ fun () ->
  M.reset ();
  seeded_workload 74;
  let first = filter_test (M.snapshot ()) in
  Alcotest.(check bool) "snapshot is pure" true (first = filter_test (M.snapshot ()));
  M.reset ();
  seeded_workload 74;
  let second = filter_test (M.snapshot ()) in
  Alcotest.(check bool) "same seeded workload, same snapshot" true (first = second)

let test_snapshot_sorted_and_json () =
  with_enabled @@ fun () ->
  M.reset ();
  seeded_workload 75;
  let snap = M.snapshot () in
  let sorted l = List.sort compare l = l in
  Alcotest.(check bool) "counters sorted" true (sorted (List.map fst snap.M.snap_counters));
  Alcotest.(check bool) "histograms sorted" true
    (sorted (List.map fst snap.M.snap_histograms));
  let json = M.to_json snap in
  Alcotest.(check bool) "json names its sections" true
    (let has needle =
       let n = String.length needle in
       let rec go i =
         i + n <= String.length json && (String.sub json i n = needle || go (i + 1))
       in
       go 0
     in
     has "\"counters\"" && has "\"gauges\"" && has "\"histograms\"")

let test_reset_keeps_handles () =
  with_enabled @@ fun () ->
  M.reset ();
  let c = M.counter "test.obs.reset" in
  M.add c 9;
  M.reset ();
  Alcotest.(check int) "zeroed in place" 0 (M.value c);
  M.incr c;
  Alcotest.(check int) "handle still live after reset" 1 (M.value c)

(* --- trace ring --------------------------------------------------------- *)

let test_trace_ring () =
  with_enabled @@ fun () ->
  M.reset ();
  T.clear ();
  Fun.protect ~finally:T.clear @@ fun () ->
  for i = 1 to 1030 do
    T.record "test.span"
      ~attrs:[ ("i", string_of_int i) ]
      ~start_ns:(Int64.of_int i) ~dur_ns:1L
  done;
  let spans = T.recent () in
  Alcotest.(check int) "ring keeps only the newest 1024 spans" 1024 (List.length spans);
  Alcotest.(check bool) "oldest-first order" true
    (let starts = List.map (fun s -> s.T.start_ns) spans in
     List.sort compare starts = starts);
  Alcotest.(check string) "newest span survives" "1030"
    (match List.rev spans with s :: _ -> List.assoc "i" s.T.attrs | [] -> "");
  Alcotest.(check int) "drops counted" 6 (M.counter_value Names.trace_dropped);
  Alcotest.(check int) "recorded counts every span" 1030 (M.counter_value Names.trace_spans)

let test_trace_json () =
  with_enabled @@ fun () ->
  T.clear ();
  T.with_span "test.sink" ~attrs:[ ("k", "v\"quoted\"") ] (fun () -> ()) |> ignore;
  let json = T.span_to_json (List.hd (T.recent ())) in
  Alcotest.(check bool) "json escapes attribute values" true
    (let has needle =
       let n = String.length needle in
       let rec go i =
         i + n <= String.length json && (String.sub json i n = needle || go (i + 1))
       in
       go 0
     in
     has "\\\"quoted\\\"" && has "\"name\":\"test.sink\"")

(* --- trace trees -------------------------------------------------------- *)

(* One fixed nested workload: with_span a > with_span b > record c. *)
let nested_workload () =
  T.with_span "test.tree.a" ~attrs:[ ("k", "a") ] (fun () ->
      T.with_span "test.tree.b" (fun () ->
          T.record "test.tree.c" ~start_ns:1L ~dur_ns:1L))

let test_trace_tree_links () =
  with_enabled @@ fun () ->
  T.clear ();
  T.seed_ids 99;
  nested_workload ();
  match T.recent () with
  | [ c; b; a ] ->
    (* children close (and therefore record) before their parents *)
    Alcotest.(check string) "inner-first order" "test.tree.c" c.T.name;
    Alcotest.(check string) "root last" "test.tree.a" a.T.name;
    Alcotest.(check bool) "one trace id" true
      (a.T.trace_id = b.T.trace_id && b.T.trace_id = c.T.trace_id);
    Alcotest.(check bool) "span ids unique and non-zero" true
      (a.T.span_id <> 0L && b.T.span_id <> 0L && c.T.span_id <> 0L
      && a.T.span_id <> b.T.span_id && b.T.span_id <> c.T.span_id
      && a.T.span_id <> c.T.span_id);
    Alcotest.(check bool) "root has no parent" true (a.T.parent_id = None);
    Alcotest.(check bool) "b under a" true (b.T.parent_id = Some a.T.span_id);
    Alcotest.(check bool) "c under b" true (c.T.parent_id = Some b.T.span_id)
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_trace_assemble () =
  with_enabled @@ fun () ->
  T.clear ();
  T.seed_ids 100;
  nested_workload ();
  let spans = T.recent () in
  match T.assemble spans with
  | [ { T.node = a; children = [ { T.node = b; children = [ { T.node = c; _ } ] } ] } ] ->
    Alcotest.(check string) "root" "test.tree.a" a.T.name;
    Alcotest.(check string) "child" "test.tree.b" b.T.name;
    Alcotest.(check string) "leaf" "test.tree.c" c.T.name;
    let rendered = T.render_trees (T.assemble spans) in
    Alcotest.(check bool) "render indents the leaf" true
      (Provkit_util.Strutil.contains_substring ~needle:"    test.tree.c" rendered)
  | trees -> Alcotest.failf "expected one 3-level tree, got %d roots" (List.length trees)

let test_trace_seeded_determinism () =
  with_enabled @@ fun () ->
  let run () =
    T.clear ();
    T.seed_ids 7;
    nested_workload ();
    List.map (fun s -> (s.T.trace_id, s.T.span_id, s.T.parent_id)) (T.recent ())
  in
  Alcotest.(check bool) "same seed, same ids" true (run () = run ())

let test_trace_record_clamped () =
  with_enabled @@ fun () ->
  T.clear ();
  let frame_start = ref 0L in
  T.with_span "test.tree.outer" (fun () ->
      (match T.open_spans () with
      | f :: _ -> frame_start := f.T.o_start_ns
      | [] -> Alcotest.fail "no open frame inside with_span");
      (* a start before the enclosing frame would break enclosure *)
      T.record "test.tree.early" ~start_ns:0L ~dur_ns:1L);
  let early = List.find (fun s -> s.T.name = "test.tree.early") (T.recent ()) in
  Alcotest.(check bool) "start clamped to the frame start" true
    (early.T.start_ns >= !frame_start)

(* Hand-built spans give exact durations, so folded self-times are exact:
   a [0,100) with child b [10,40) with child c [12,17). *)
let test_trace_folded () =
  let mk name span_id parent_id start_ns dur_ns =
    {
      T.name;
      attrs = [];
      start_ns;
      dur_ns;
      trace_id = 1L;
      span_id;
      parent_id;
    }
  in
  let spans =
    [
      mk "a" 10L None 0L 100L;
      mk "b" 11L (Some 10L) 10L 30L;
      mk "c" 12L (Some 11L) 12L 5L;
    ]
  in
  Alcotest.(check (list (pair string int64)))
    "self times tile the root"
    [ ("a", 70L); ("a;b", 25L); ("a;b;c", 5L) ]
    (T.folded spans)

(* Control bytes leave span_to_json as \u00XX escapes and must come
   back as themselves, in names, attr keys and attr values. *)
let test_span_json_control_bytes () =
  for c = 0 to 0x1f do
    let v = Printf.sprintf "x%cy" (Char.chr c) in
    let s =
      { T.name = "n" ^ v; attrs = [ ("k" ^ v, v) ]; start_ns = 1L; dur_ns = 2L;
        trace_id = 3L; span_id = 4L; parent_id = Some 5L }
    in
    let scalars, attrs = T.Jsonl_reader.fields (T.span_to_json s) in
    if List.assoc_opt "name" scalars <> Some s.T.name || attrs <> s.T.attrs then
      Alcotest.failf "byte 0x%02x did not round-trip" c
  done;
  let field line = List.assoc "a" (fst (T.Jsonl_reader.fields line)) in
  Alcotest.(check string) "non-ASCII escapes decode to UTF-8" "\xc3\xa9A"
    (field {|{"a":"\u00e9\u0041"}|});
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (match T.Jsonl_reader.fields bad with
        | _ -> false
        | exception T.Jsonl_reader.Bad -> true))
    [ {|{"a":"\u12"}|}; {|{"a":"\uzzzz"}|}; {|{"a":"\ud800"}|}; {|{"a":"\u+123"}|} ]

(* --- flight recorder ---------------------------------------------------- *)

module F = Provkit_obs.Flight

let test_flight_ring_bounds () =
  F.clear ();
  let before = F.recorded () in
  for i = 1 to 20 do
    F.record "test.flight.flood" ~attrs:[ ("i", string_of_int i) ]
  done;
  Alcotest.(check int) "recorded counts past the ring" 20 (F.recorded () - before);
  let kept = F.incidents () in
  Alcotest.(check int) "ring keeps 16" 16 (List.length kept);
  Alcotest.(check bool) "oldest first" true
    (let seqs = List.map (fun i -> i.F.seq) kept in
     List.sort compare seqs = seqs);
  Alcotest.(check string) "newest survives" "20"
    (match F.latest () with Some i -> List.assoc "i" i.F.attrs | None -> "");
  F.clear ();
  Alcotest.(check int) "clear drops kept incidents" 0 (List.length (F.incidents ()));
  Alcotest.(check int) "recorded keeps counting" 20 (F.recorded () - before)

(* The acceptance-path postmortem: a fault fires inside an open span and
   the incident captures the failing span's ancestry plus metrics. *)
let test_flight_fault_postmortem () =
  with_enabled @@ fun () ->
  F.clear ();
  T.clear ();
  F.install_fault_hook ();
  Fun.protect ~finally:F.uninstall_fault_hook @@ fun () ->
  F.set_context [ ("test_ctx", "stale"); ("suite", "obs") ];
  F.set_context [ ("test_ctx", "fresh") ];
  let before = F.recorded () in
  T.with_span "test.flight.outer" (fun () ->
      let buf = Buffer.create 64 in
      let sink =
        Provkit_util.Faulty_io.to_buffer ~faults:[ Provkit_util.Faulty_io.Torn_final_write 1 ] buf
      in
      Provkit_util.Faulty_io.write sink "doomed bytes";
      Provkit_util.Faulty_io.close sink);
  Alcotest.(check int) "one incident per armed fault" 1 (F.recorded () - before);
  match F.latest () with
  | None -> Alcotest.fail "no incident captured"
  | Some i ->
    Alcotest.(check string) "reason" "io.fault.injected" i.F.reason;
    Alcotest.(check string) "fault spec attr" "tear@1" (List.assoc "fault" i.F.attrs);
    Alcotest.(check bool) "ancestry holds the open span" true
      (List.exists (fun o -> o.T.o_name = "test.flight.outer") i.F.ancestry);
    Alcotest.(check string) "later context wins" "fresh" (List.assoc "test_ctx" i.F.context);
    Alcotest.(check string) "merged context kept" "obs" (List.assoc "suite" i.F.context);
    let json = F.to_json i in
    let has needle = Provkit_util.Strutil.contains_substring ~needle json in
    Alcotest.(check bool) "json is a postmortem" true (has "\"postmortem\":1");
    Alcotest.(check bool) "json names the open span" true (has "test.flight.outer");
    Alcotest.(check bool) "json embeds metrics" true (has "\"metrics\"")

let suite =
  [
    Alcotest.test_case "quantiles: constant" `Quick test_quantiles_constant;
    Alcotest.test_case "quantiles: bimodal" `Quick test_quantiles_bimodal;
    Alcotest.test_case "quantiles: zipf" `Quick test_quantiles_zipf;
    Alcotest.test_case "bucket bounds roundtrip" `Quick test_bucket_roundtrip;
    Alcotest.test_case "counter saturation" `Quick test_counter_saturation;
    Alcotest.test_case "counter monotonicity" `Quick test_counter_monotonic;
    Alcotest.test_case "global off switch" `Quick test_off_switch;
    Alcotest.test_case "snapshot determinism" `Quick test_snapshot_determinism;
    Alcotest.test_case "snapshot order + json" `Quick test_snapshot_sorted_and_json;
    Alcotest.test_case "reset keeps handles" `Quick test_reset_keeps_handles;
    Alcotest.test_case "trace ring bounds" `Quick test_trace_ring;
    Alcotest.test_case "trace json" `Quick test_trace_json;
    Alcotest.test_case "trace tree links" `Quick test_trace_tree_links;
    Alcotest.test_case "trace assemble + render" `Quick test_trace_assemble;
    Alcotest.test_case "trace seeded ids" `Quick test_trace_seeded_determinism;
    Alcotest.test_case "trace record clamping" `Quick test_trace_record_clamped;
    Alcotest.test_case "trace folded stacks" `Quick test_trace_folded;
    Alcotest.test_case "span json control bytes" `Quick test_span_json_control_bytes;
    Alcotest.test_case "flight ring bounds" `Quick test_flight_ring_bounds;
    Alcotest.test_case "flight fault postmortem" `Quick test_flight_fault_postmortem;
  ]
