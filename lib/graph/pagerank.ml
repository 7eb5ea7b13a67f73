let damping = 0.85
let iterations = 50
let epsilon = 1e-10

let run ?personalization (sub : Subgraph.t) =
  let { Subgraph.out_start; in_start; in_src; _ } = sub in
  let n = Subgraph.size sub in
  let restart = Array.make n (1.0 /. float_of_int n) in
  Option.iter
    (fun weights ->
      let valid =
        List.filter_map
          (fun (id, w) ->
            let i = Subgraph.local sub id in
            if i >= 0 && w > 0.0 then Some (i, w) else None)
          weights
      in
      let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 valid in
      if total > 0.0 then begin
        Array.fill restart 0 n 0.0;
        List.iter (fun (i, w) -> restart.(i) <- restart.(i) +. (w /. total)) valid
      end)
    personalization;
  let rank = ref (Array.copy restart) and next = ref (Array.make n 0.0) in
  (* [share.(u)] is what [u] sends along each out-edge this round. *)
  let share = Array.make n 0.0 in
  let i = ref 0 in
  while !i < iterations do
    let r = !rank and x = !next in
    (* Dangling nodes donate their mass to the restart vector. *)
    let dangling = ref 0.0 in
    for u = 0 to n - 1 do
      let deg = out_start.(u + 1) - out_start.(u) in
      if deg = 0 then dangling := !dangling +. r.(u) else share.(u) <- r.(u) /. float_of_int deg
    done;
    let delta = ref 0.0 in
    for v = 0 to n - 1 do
      let flow = ref 0.0 in
      for k = in_start.(v) to in_start.(v + 1) - 1 do
        flow := !flow +. share.(in_src.(k))
      done;
      let p = restart.(v) in
      x.(v) <- ((1.0 -. damping) *. p) +. (damping *. (!flow +. (!dangling *. p)));
      delta := !delta +. Float.abs (x.(v) -. r.(v))
    done;
    rank := x;
    next := r;
    i := if !delta > epsilon then !i + 1 else iterations
  done;
  !rank
