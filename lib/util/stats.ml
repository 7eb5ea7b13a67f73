type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let mean xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let n = List.length xs in
    List.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let n = float_of_int (List.length xs) in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (ss /. n)

let percentile p xs =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty sample"
  | _ ->
    let arr = Array.of_list xs in
    Array.sort compare arr;
    let n = Array.length arr in
    if n = 1 then arr.(0)
    else begin
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = min (n - 1) (lo + 1) in
      let frac = rank -. float_of_int lo in
      arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))
    end

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty sample"
  | _ ->
    {
      count = List.length xs;
      mean = mean xs;
      stddev = stddev xs;
      min = List.fold_left min infinity xs;
      max = List.fold_left max neg_infinity xs;
      p50 = percentile 50.0 xs;
      p90 = percentile 90.0 xs;
      p99 = percentile 99.0 xs;
    }
