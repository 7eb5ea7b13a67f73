let rank_of ~equal item results =
  let rec scan i = function
    | [] -> None
    | x :: rest -> if equal item x then Some i else scan (i + 1) rest
  in
  scan 1 results

let reciprocal_rank = function None -> 0.0 | Some r -> 1.0 /. float_of_int r

let mrr ranks =
  match ranks with
  | [] -> 0.0
  | _ ->
    List.fold_left (fun acc r -> acc +. reciprocal_rank r) 0.0 ranks
    /. float_of_int (List.length ranks)

let hit_at k ranks =
  match ranks with
  | [] -> 0.0
  | _ ->
    let hits =
      List.length (List.filter (function Some r -> r <= k | None -> false) ranks)
    in
    float_of_int hits /. float_of_int (List.length ranks)
