module Scratch = Provkit_util.Scratch

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

let induce ?(mask = Digraph.all_tags) g ids =
  Scratch.with_ ~bound:(Digraph.bound g) @@ fun s ->
  List.iter
    (fun id -> if Digraph.mem_node g id && not (Scratch.mem s id) then Scratch.add s id)
    ids;
  Scratch.sort s;
  let members = Array.sub s.Scratch.ids 0 s.Scratch.count in
  let n = Array.length members in
  (* The members' local ids, by node id. *)
  let local = Scratch.ints s 0 in
  Array.iteri (fun i id -> local.(id) <- i) members;
  let kept e = Digraph.admits mask e && Scratch.mem s (Digraph.other e) in
  (* Count the kept edges first, with [in_start.(j + 1)] counting [j]'s
     in-edges, so the out-edges fill an array of their own size. *)
  let out_start = Array.make (n + 1) 0 and in_start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let adj = Digraph.out_adj g members.(i) and m = ref out_start.(i) in
    for k = 0 to Digraph.out_degree g members.(i) - 1 do
      let e = adj.(k) in
      if kept e then begin
        incr m;
        let j = local.(Digraph.other e) in
        in_start.(j + 1) <- in_start.(j + 1) + 1
      end
    done;
    out_start.(i + 1) <- !m
  done;
  let out_dst = Array.make out_start.(n) 0 in
  for i = 0 to n - 1 do
    let adj = Digraph.out_adj g members.(i) and m = ref out_start.(i) in
    for k = 0 to Digraph.out_degree g members.(i) - 1 do
      let e = adj.(k) in
      if kept e then begin
        out_dst.(!m) <- local.(Digraph.other e);
        incr m
      end
    done
  done;
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
  { members; out_start; out_dst; in_start; in_src }
