(* HyperLogLog property suite: the NDV estimate must stay within the
   sketch's advertised error bound (1.04/sqrt m, here checked at three
   standard deviations) across seeds, the small range must degrade into
   near-exact linear counting. *)

module H = Provkit_obs.Hyperloglog
module Prng = Provkit_util.Prng

let check_within ~bound ~actual est msg =
  let err = Float.abs (est -. float_of_int actual) /. float_of_int actual in
  if err > bound then
    Alcotest.failf "%s: estimate %.1f vs true %d (rel err %.4f > %.4f)" msg est actual err
      bound

let add h s =
  let b = Buffer.create 16 in
  Buffer.add_string b s;
  H.add_buffer h b

(* The advertised standard error, 1.04/sqrt m over m registers. *)
let error_bound h = 1.04 /. sqrt (float_of_int (1 lsl H.precision h))

let seeds () =
  let base = Test_seed.value in
  Test_seed.announce ();
  [ base; base + 1; base + 2 ]

let test_ndv_within_bounds () =
  List.iter
    (fun seed ->
      let h = H.create () in
      let n = 20_000 in
      for i = 0 to n - 1 do
        add h (Printf.sprintf "s%d-item-%d" seed i)
      done;
      (* 3 sigma: a per-seed failure probability well under 1%. *)
      check_within
        ~bound:(3.0 *. error_bound h)
        ~actual:n (H.estimate h)
        (Printf.sprintf "seed %d" seed))
    (seeds ())

let test_duplicates_do_not_inflate () =
  let h = H.create () in
  let n = 5_000 in
  for i = 0 to n - 1 do
    add h (Printf.sprintf "dup-%d" i)
  done;
  let first = H.estimate h in
  for _ = 1 to 3 do
    for i = 0 to n - 1 do
      add h (Printf.sprintf "dup-%d" i)
    done
  done;
  Alcotest.check (Alcotest.float 1e-9) "re-adding is a no-op" first (H.estimate h)

let test_small_range_linear_counting () =
  List.iter
    (fun seed ->
      let h = H.create () in
      let n = 200 in
      for i = 0 to n - 1 do
        add h (Printf.sprintf "small-%d-%d" seed i)
      done;
      (* Far below 2.5m the zero-register count is nearly exact. *)
      check_within ~bound:0.03 ~actual:n (H.estimate h)
        (Printf.sprintf "linear counting, seed %d" seed))
    (seeds ())

let test_precision_validation () =
  List.iter
    (fun p ->
      match H.create ~precision:p () with
      | _ -> Alcotest.failf "precision %d accepted" p
      | exception Invalid_argument _ -> ())
    [ 3; 19; 0; -1 ];
  Alcotest.check Alcotest.int "default precision" 12 (H.precision (H.create ()))

let test_add_hash_uniform_stream () =
  (* Feeding raw splitmix output through add_hash directly exercises the
     register indexing without the string hash. *)
  let h = H.create () in
  let rng = Prng.create (Test_seed.value + 9) in
  let n = 30_000 in
  let distinct = Hashtbl.create n in
  while Hashtbl.length distinct < n do
    Hashtbl.replace distinct (Prng.bits64 rng) ()
  done;
  Hashtbl.iter (fun k () -> H.add_hash h k) distinct;
  check_within ~bound:(3.0 *. error_bound h) ~actual:n (H.estimate h) "raw hashes"

let suite =
  [
    Alcotest.test_case "ndv within 3-sigma bounds over 3 seeds" `Quick
      test_ndv_within_bounds;
    Alcotest.test_case "duplicates do not inflate" `Quick test_duplicates_do_not_inflate;
    Alcotest.test_case "small range linear counting" `Quick
      test_small_range_linear_counting;
    Alcotest.test_case "precision validation" `Quick test_precision_validation;
    Alcotest.test_case "raw 64-bit hash stream" `Quick test_add_hash_uniform_stream;
  ]
