module Scratch = Provkit_util.Scratch

type direction = Forward | Backward | Both

type 'a outcome = { visited : 'a; expansions : int; truncated : bool }

type hit = { node : int; depth : int; path : int list }

let iter_neighbors direction g id f =
  match direction with
  | Forward -> Digraph.iter_out g id f
  | Backward -> Digraph.iter_in g id f
  | Both ->
    Digraph.iter_out g id f;
    Digraph.iter_in g id f

(* The one breadth-first loop.  It reaches [roots] at depth 0, then
   expands queued nodes in order until the queue runs dry, [budget]
   expansions are spent, or [stop] accepts a newly reached non-root node
   (asked as each is reached).  [finish] then reads the scratch: its
   members are the reached nodes, [ids.(0 .. visited - 1)] lists them
   in reach order (it is the queue), and [depth] and [parent] hold each
   one's hop count and the node it was reached from (a root's is
   itself).  [follow] receives traversal
   endpoints oriented src=expanded node, dst=candidate, regardless of
   edge direction. *)
let walk ?(direction = Forward) ?max_depth ?budget ?follow ?(stop = fun _ -> false) g ~roots
    finish =
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
  let head = ref 0 and current = ref 0 and stopped = ref false and truncated = ref false in
  let visit next e =
    if
      (not !stopped)
      && (not (Scratch.mem s next))
      && match follow with None -> true | Some f -> f ~src:!current ~dst:next e
    then begin
      reach next ~from:!current (depth.(!current) + 1);
      stopped := stop next
    end
  in
  while (not !stopped) && !head < s.count do
    match budget with
    | Some b when !head >= b ->
      truncated := true;
      stopped := true
    | _ -> (
      current := s.ids.(!head);
      incr head;
      match max_depth with
      | Some m when depth.(!current) >= m -> truncated := true
      | _ -> iter_neighbors direction g !current visit)
  done;
  finish ~depth ~parent s { visited = s.count; expansions = !head; truncated = !truncated }

let bfs ?direction ?max_depth ?budget ?follow g ~roots =
  walk ?direction ?max_depth ?budget ?follow g ~roots @@ fun ~depth ~parent:_ s o ->
  { o with visited = List.init o.visited (fun i -> (s.ids.(i), depth.(s.ids.(i)))) }

let first_match ?direction ?budget ?follow g ~root matches =
  let hit = ref (-1) in
  let stop id = if matches id then (hit := id; true) else false in
  walk ?direction ?budget ?follow ~stop g ~roots:[ root ] @@ fun ~depth ~parent _ o ->
  let rec path acc id = if id = root then root :: acc else path (id :: acc) parent.(id) in
  let found = !hit in
  {
    o with
    visited =
      (if found < 0 then None else Some { node = found; depth = depth.(found); path = path [] found });
  }

let without_root root outcome =
  { outcome with visited = List.filter (fun (id, _) -> id <> root) outcome.visited }

let ancestors ?max_depth ?budget ?follow g id =
  without_root id (bfs ~direction:Backward ?max_depth ?budget ?follow g ~roots:[ id ])

let descendants ?max_depth ?budget g id =
  without_root id (bfs ~direction:Forward ?max_depth ?budget g ~roots:[ id ])

let dfs_postorder g ~roots =
  let visited = Hashtbl.create 64 in
  let order = ref [] in
  (* Explicit stack with an expansion marker for iterative postorder. *)
  let stack = Stack.create () in
  List.iter
    (fun root -> if Digraph.mem_node g root then Stack.push (`Enter root) stack)
    roots;
  while not (Stack.is_empty stack) do
    match Stack.pop stack with
    | `Exit id -> order := id :: !order
    | `Enter id ->
      if not (Hashtbl.mem visited id) then begin
        Hashtbl.replace visited id ();
        Stack.push (`Exit id) stack;
        List.iter
          (fun next ->
            if not (Hashtbl.mem visited next) then Stack.push (`Enter next) stack)
          (Digraph.succ g id)
      end
  done;
  List.rev !order
