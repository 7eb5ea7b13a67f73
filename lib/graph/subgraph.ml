type t = {
  members : int array;
  out_start : int array;
  out_dst : int array;
  in_start : int array;
  in_src : int array;
}

let size t = Array.length t.members

let rec search members (id : int) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    if members.(mid) = id then mid
    else if members.(mid) < id then search members id (mid + 1) hi
    else search members id lo mid

let local t id = search t.members id 0 (size t)

let induce g ~follow ids =
  let members = Array.of_list (List.sort_uniq Int.compare (List.filter (Digraph.mem_node g) ids)) in
  let n = Array.length members in
  (* Out-edges first, in room for all the members' out-edges, while
     [in_start.(j + 1)] counts [j]'s in-edges. *)
  let out_dst = Array.make (Array.fold_left (fun m s -> m + Digraph.out_degree g s) 0 members) 0 in
  let out_start = Array.make (n + 1) 0 and in_start = Array.make (n + 1) 0 in
  Array.iteri
    (fun i src ->
      let m = ref out_start.(i) in
      Digraph.iter_out g src (fun dst e ->
          let j = search members dst 0 n in
          if j >= 0 && follow ~src ~dst e then begin
            out_dst.(!m) <- j;
            incr m;
            in_start.(j + 1) <- in_start.(j + 1) + 1
          end);
      out_start.(i + 1) <- !m)
    members;
  for j = 1 to n do
    in_start.(j) <- in_start.(j) + in_start.(j - 1)
  done;
  (* Sources in ascending order, each one's out-edges oldest first. *)
  let next = Array.sub in_start 0 n and in_src = Array.make in_start.(n) 0 in
  for i = 0 to n - 1 do
    for k = out_start.(i) to out_start.(i + 1) - 1 do
      let j = out_dst.(k) in
      in_src.(next.(j)) <- i;
      next.(j) <- next.(j) + 1
    done
  done;
  { members; out_start; out_dst = Array.sub out_dst 0 out_start.(n); in_start; in_src }
