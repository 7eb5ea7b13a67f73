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
   (asked as each is reached).  [finish] then reads the scratch:
   [queue.(0 .. visited - 1)] holds every reached node in reach order,
   each with its [depth] and [parent].  [follow] receives traversal
   endpoints oriented src=expanded node, dst=candidate, regardless of
   edge direction. *)
let walk ?(direction = Forward) ?max_depth ?budget ?follow ?(stop = fun _ -> false) g ~roots
    finish =
  Walk_scratch.with_scratch ~bound:(Digraph.bound g) @@ fun s ->
  let gen = Walk_scratch.next_gen s in
  let head = ref 0 and tail = ref 0 in
  let reach id ~parent d =
    s.stamp.(id) <- gen;
    s.depth.(id) <- d;
    s.parent.(id) <- parent;
    s.queue.(!tail) <- id;
    incr tail
  in
  List.iter
    (fun root ->
      if Digraph.mem_node g root && s.stamp.(root) <> gen then reach root ~parent:root 0)
    roots;
  let current = ref 0 and stopped = ref false and truncated = ref false in
  let visit next e =
    if
      (not !stopped)
      && s.stamp.(next) <> gen
      && match follow with None -> true | Some f -> f ~src:!current ~dst:next e
    then begin
      reach next ~parent:!current (s.depth.(!current) + 1);
      stopped := stop next
    end
  in
  while (not !stopped) && !head < !tail do
    match budget with
    | Some b when !head >= b ->
      truncated := true;
      stopped := true
    | _ -> (
      current := s.queue.(!head);
      incr head;
      match max_depth with
      | Some m when s.depth.(!current) >= m -> truncated := true
      | _ -> iter_neighbors direction g !current visit)
  done;
  finish s { visited = !tail; expansions = !head; truncated = !truncated }

let bfs ?direction ?max_depth ?budget ?follow g ~roots =
  walk ?direction ?max_depth ?budget ?follow g ~roots @@ fun s o ->
  { o with visited = List.init o.visited (fun i -> (s.queue.(i), s.depth.(s.queue.(i)))) }

let first_match ?direction ?budget ?follow g ~root matches =
  let hit = ref (-1) in
  let stop id = if matches id then (hit := id; true) else false in
  walk ?direction ?budget ?follow ~stop g ~roots:[ root ] @@ fun s o ->
  let rec path acc id = if id = root then root :: acc else path (id :: acc) s.parent.(id) in
  let found = !hit in
  {
    o with
    visited =
      (if found < 0 then None else Some { node = found; depth = s.depth.(found); path = path [] found });
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
