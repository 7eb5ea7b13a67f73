module Scratch = Provkit_util.Scratch

type direction = Forward | Backward | Both

type 'a outcome = { visited : 'a; expansions : int; truncated : bool }

type hit = { node : int; depth : int; path : int list }

(* The one breadth-first loop.  It reaches [roots] at depth 0, then
   expands queued nodes in order until the queue runs dry, [budget]
   expansions are spent, or [stop] accepts a newly reached non-root node
   (asked as each is reached).  [finish] then reads the scratch: its
   members are the reached nodes, [ids.(0 .. visited - 1)] lists them
   in reach order (it is the queue), and [depth] and [parent] hold each
   one's hop count and the node it was reached from (a root's is
   itself).  An edge is followed when [mask] holds its tag. *)
let walk ?(direction = Forward) ?max_depth ?budget ?(mask = Digraph.all_tags)
    ?(stop = fun _ -> false) g ~roots finish =
  Scratch.with_ ~bound:(Digraph.bound g) @@ fun s ->
  let depth = Scratch.ints s 0 and parent = Scratch.ints s 1 in
  let reach id ~from d =
    Scratch.add s id;
    depth.(id) <- d;
    parent.(id) <- from
  in
  List.iter
    (fun root ->
      if Digraph.mem_node g root && not (Scratch.mem s root) then
        reach root ~from:root 0)
    roots;
  let head = ref 0 and stopped = ref false and truncated = ref false in
  (* Reaches the unreached nodes [current]'s first [n] packed edges
     [adj] lead to, in order, until [stop] accepts one. *)
  let scan current adj n =
    let i = ref 0 in
    while (not !stopped) && !i < n do
      let e = Array.unsafe_get adj !i in
      let next = Digraph.other e in
      if Digraph.admits mask e && not (Scratch.mem s next) then begin
        reach next ~from:current (depth.(current) + 1);
        stopped := stop next
      end;
      incr i
    done
  in
  while (not !stopped) && !head < s.count do
    match budget with
    | Some b when !head >= b ->
      truncated := true;
      stopped := true
    | _ -> (
      let current = s.ids.(!head) in
      incr head;
      match max_depth with
      | Some m when depth.(current) >= m -> truncated := true
      | _ ->
        if direction <> Backward then
          scan current (Digraph.out_adj g current) (Digraph.out_degree g current);
        if direction <> Forward then
          scan current (Digraph.in_adj g current) (Digraph.in_degree g current))
  done;
  finish ~depth ~parent s { visited = s.count; expansions = !head; truncated = !truncated }

let bfs ?direction ?max_depth ?budget ?mask g ~roots =
  walk ?direction ?max_depth ?budget ?mask g ~roots @@ fun ~depth ~parent:_ s o ->
  { o with visited = List.init o.visited (fun i -> (s.ids.(i), depth.(s.ids.(i)))) }

let first_match ?direction ?budget ?mask g ~root matches =
  let hit = ref (-1) in
  let stop id = if matches id then (hit := id; true) else false in
  walk ?direction ?budget ?mask ~stop g ~roots:[ root ] @@ fun ~depth ~parent _ o ->
  let rec path acc id = if id = root then root :: acc else path (id :: acc) parent.(id) in
  let found = !hit in
  {
    o with
    visited =
      (if found < 0 then None else Some { node = found; depth = depth.(found); path = path [] found });
  }

let without_root root outcome =
  { outcome with visited = List.filter (fun (id, _) -> id <> root) outcome.visited }

let ancestors ?max_depth ?budget ?mask g id =
  without_root id (bfs ~direction:Backward ?max_depth ?budget ?mask g ~roots:[ id ])
