module Stats = Provkit_util.Stats

let feq = Alcotest.float 1e-9

let test_mean () =
  Alcotest.check feq "empty" 0.0 (Stats.mean []);
  Alcotest.check feq "singleton" 4.0 (Stats.mean [ 4.0 ]);
  Alcotest.check feq "average" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ])

let test_stddev () =
  Alcotest.check feq "empty" 0.0 (Stats.stddev []);
  Alcotest.check feq "singleton" 0.0 (Stats.stddev [ 7.0 ]);
  Alcotest.check feq "constant" 0.0 (Stats.stddev [ 3.0; 3.0; 3.0 ]);
  (* population sd of 2,4,4,4,5,5,7,9 is exactly 2 *)
  Alcotest.check feq "known value" 2.0
    (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.check feq "p0 = min" 1.0 (Stats.percentile 0.0 xs);
  Alcotest.check feq "p100 = max" 5.0 (Stats.percentile 100.0 xs);
  Alcotest.check feq "p50 = median" 3.0 (Stats.percentile 50.0 xs);
  Alcotest.check feq "interpolated" 1.5 (Stats.percentile 12.5 xs);
  Alcotest.check feq "unsorted input ok" 3.0 (Stats.percentile 50.0 [ 5.0; 1.0; 3.0; 2.0; 4.0 ])

let test_percentile_empty () =
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.percentile 50.0 []))

let test_summarize () =
  let s = Stats.summarize [ 10.0; 20.0; 30.0 ] in
  Alcotest.check Alcotest.int "count" 3 s.Stats.count;
  Alcotest.check feq "min" 10.0 s.Stats.min;
  Alcotest.check feq "max" 30.0 s.Stats.max;
  Alcotest.check feq "mean" 20.0 s.Stats.mean;
  Alcotest.check feq "p50" 20.0 s.Stats.p50

let test_summarize_monotone_percentiles () =
  let rng = Provkit_util.Prng.create 33 in
  let xs = List.init 500 (fun _ -> Provkit_util.Prng.float rng 100.0) in
  let s = Stats.summarize xs in
  Alcotest.check Alcotest.bool "p50<=p90<=p99<=max" true
    (s.Stats.p50 <= s.Stats.p90 && s.Stats.p90 <= s.Stats.p99 && s.Stats.p99 <= s.Stats.max);
  Alcotest.check Alcotest.bool "min<=p50" true (s.Stats.min <= s.Stats.p50)

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile empty" `Quick test_percentile_empty;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "percentiles monotone" `Quick test_summarize_monotone_percentiles;
  ]
