module Zipf = Provkit_util.Zipf
module Prng = Provkit_util.Prng

let test_probabilities_sum () =
  let z = Zipf.create ~n:50 ~s:1.0 in
  let total = ref 0.0 in
  for k = 0 to 49 do
    total := !total +. Zipf.probability z k
  done;
  if Float.abs (!total -. 1.0) > 1e-9 then Alcotest.failf "mass sums to %f" !total

let test_probabilities_decreasing () =
  let z = Zipf.create ~n:30 ~s:1.2 in
  for k = 1 to 29 do
    if Zipf.probability z k > Zipf.probability z (k - 1) +. 1e-12 then
      Alcotest.failf "mass increased at rank %d" k
  done

let test_uniform_when_s_zero () =
  let z = Zipf.create ~n:10 ~s:0.0 in
  for k = 0 to 9 do
    let p = Zipf.probability z k in
    if Float.abs (p -. 0.1) > 1e-9 then Alcotest.failf "not uniform: %f" p
  done

let test_samples_in_range () =
  let z = Zipf.create ~n:7 ~s:1.0 in
  let rng = Prng.create 4 in
  for _ = 1 to 1000 do
    let k = Zipf.sample z rng in
    if k < 0 || k >= 7 then Alcotest.failf "sample out of range: %d" k
  done

let test_sampling_matches_mass () =
  let z = Zipf.create ~n:5 ~s:1.0 in
  let rng = Prng.create 77 in
  let n = 50_000 in
  let counts = Array.make 5 0 in
  for _ = 1 to n do
    let k = Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  for k = 0 to 4 do
    let observed = float_of_int counts.(k) /. float_of_int n in
    let expected = Zipf.probability z k in
    if Float.abs (observed -. expected) > 0.01 then
      Alcotest.failf "rank %d: observed %f expected %f" k observed expected
  done

let test_singleton () =
  let z = Zipf.create ~n:1 ~s:1.0 in
  let rng = Prng.create 1 in
  Alcotest.check Alcotest.int "only rank" 0 (Zipf.sample z rng);
  Alcotest.check (Alcotest.float 1e-9) "unit mass" 1.0 (Zipf.probability z 0)

let suite =
  [
    Alcotest.test_case "mass sums to 1" `Quick test_probabilities_sum;
    Alcotest.test_case "mass decreasing in rank" `Quick test_probabilities_decreasing;
    Alcotest.test_case "s=0 is uniform" `Quick test_uniform_when_s_zero;
    Alcotest.test_case "samples in range" `Quick test_samples_in_range;
    Alcotest.test_case "sampling matches mass" `Quick test_sampling_matches_mass;
    Alcotest.test_case "singleton" `Quick test_singleton;
  ]
