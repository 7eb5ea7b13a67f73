type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = mix64 s }

(* Non-negative 63-bit int from the top bits. *)
let bits63 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 1)

let int t bound =
  assert (bound > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let rec draw () =
    let r = bits63 t in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then draw () else v
  in
  draw ()

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let exponential t lambda =
  assert (lambda > 0.0);
  let u = max 1e-300 (float t 1.0) in
  -.log u /. lambda

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Prng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k arr =
  let n = Array.length arr in
  let k = min k n in
  if k = 0 then []
  else begin
    let idx = Array.init n (fun i -> i) in
    (* Partial Fisher-Yates: only the first k slots need to be settled. *)
    for i = 0 to k - 1 do
      let j = int_in t i (n - 1) in
      let tmp = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- tmp
    done;
    List.init k (fun i -> arr.(idx.(i)))
  end
