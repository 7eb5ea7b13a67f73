type scores = { hub : float array; authority : float array }

let iterations = 30
let epsilon = 1e-8

(* Scales [a] to unit L2 norm, its squares summed over ascending ids. *)
let normalize a =
  let sq = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    sq := !sq +. (a.(i) *. a.(i))
  done;
  let norm = sqrt !sq in
  if norm > 0.0 then
    for i = 0 to Array.length a - 1 do
      a.(i) <- a.(i) /. norm
    done

let run (sub : Subgraph.t) =
  let { Subgraph.out_start; out_dst; in_start; in_src; _ } = sub in
  let n = Subgraph.size sub in
  let hub = Array.make n 1.0 and authority = Array.make n 1.0 in
  let i = ref 0 in
  while !i < iterations do
    (* authority(v) = the sum of hub(u) over v's in-edges *)
    for v = 0 to n - 1 do
      let s = ref 0.0 in
      for k = in_start.(v) to in_start.(v + 1) - 1 do
        s := !s +. hub.(in_src.(k))
      done;
      authority.(v) <- !s
    done;
    normalize authority;
    let delta = ref 0.0 in
    for v = 0 to n - 1 do
      let s = ref 0.0 in
      for k = out_start.(v) to out_start.(v + 1) - 1 do
        s := !s +. authority.(out_dst.(k))
      done;
      delta := !delta +. Float.abs (!s -. hub.(v));
      hub.(v) <- !s
    done;
    normalize hub;
    i := if !delta > epsilon then !i + 1 else iterations
  done;
  { hub; authority }
