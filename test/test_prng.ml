(* Determinism, bounds and rough distributional sanity of the PRNG. *)

module Prng = Provkit_util.Prng

let check = Alcotest.check

let test_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_different_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  check Alcotest.bool "streams differ" true !differs

let test_split_independence () =
  let parent = Prng.create 7 and twin = Prng.create 7 in
  let child = Prng.split parent in
  ignore (Prng.split twin);
  (* Drawing from the child must not affect the parent's future. *)
  for _ = 1 to 50 do
    ignore (Prng.bits64 child)
  done;
  check Alcotest.int64 "parent unaffected by child draws" (Prng.bits64 twin)
    (Prng.bits64 parent)

let test_int_bounds () =
  let rng = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "int out of bounds: %d" v
  done

let test_int_in_bounds () =
  let rng = Prng.create 6 in
  for _ = 1 to 1000 do
    let v = Prng.int_in rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "int_in out of bounds: %d" v
  done

let test_int_covers_range () =
  let rng = Prng.create 8 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Prng.int rng 4) <- true
  done;
  check Alcotest.bool "all residues hit" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let rng = Prng.create 10 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 3.0 in
    if v < 0.0 || v >= 3.0 then Alcotest.failf "float out of bounds: %f" v
  done

let test_bernoulli_extremes () =
  let rng = Prng.create 11 in
  for _ = 1 to 100 do
    check Alcotest.bool "p=0 never" false (Prng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    check Alcotest.bool "p=1 always" true (Prng.bernoulli rng 1.0)
  done

let test_bernoulli_mean () =
  let rng = Prng.create 12 in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  if Float.abs (p -. 0.3) > 0.03 then Alcotest.failf "bernoulli mean off: %f" p

let test_exponential_mean () =
  let rng = Prng.create 14 in
  let n = 20_000 in
  let samples = List.init n (fun _ -> Prng.exponential rng 0.5) in
  let mean = Provkit_util.Stats.mean samples in
  if Float.abs (mean -. 2.0) > 0.15 then Alcotest.failf "exponential mean off: %f" mean

let test_pick () =
  let rng = Prng.create 16 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    let v = Prng.pick rng arr in
    check Alcotest.bool "picked element" true (Array.exists (String.equal v) arr)
  done

let test_pick_list_empty () =
  let rng = Prng.create 17 in
  Alcotest.check_raises "empty list rejected" (Invalid_argument "Prng.pick_list: empty list")
    (fun () -> ignore (Prng.pick_list rng []))

let test_shuffle_permutation () =
  let rng = Prng.create 20 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  check (Alcotest.array Alcotest.int) "still a permutation" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Prng.create 21 in
  let arr = Array.init 20 Fun.id in
  let sample = Prng.sample_without_replacement rng 8 arr in
  check Alcotest.int "size" 8 (List.length sample);
  check Alcotest.int "distinct" 8 (List.length (List.sort_uniq Int.compare sample));
  let all = Prng.sample_without_replacement rng 100 arr in
  check Alcotest.int "capped at population" 20 (List.length all);
  check (Alcotest.list Alcotest.int) "empty sample" [] (Prng.sample_without_replacement rng 0 arr)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "different seeds differ" `Quick test_different_seeds;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "bernoulli mean" `Quick test_bernoulli_mean;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "pick" `Quick test_pick;
    Alcotest.test_case "pick_list empty" `Quick test_pick_list_empty;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
  ]
