type t = { n : int; s : float; cdf : float array }

let create ~n ~s =
  assert (n >= 1);
  assert (s >= 0.0);
  let weights = Array.init n (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (weights.(k) /. total);
    cdf.(k) <- !acc
  done;
  cdf.(n - 1) <- 1.0;
  { n; s; cdf }

let sample t rng =
  let u = Prng.float rng 1.0 in
  (* First index whose cumulative mass covers u. *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let probability t k =
  assert (k >= 0 && k < t.n);
  if k = 0 then t.cdf.(0) else t.cdf.(k) -. t.cdf.(k - 1)
