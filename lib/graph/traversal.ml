type direction = Forward | Backward | Both

type 'a outcome = { visited : 'a; truncated : bool }

let iter_neighbors direction g id f =
  match direction with
  | Forward -> Digraph.iter_out g id f
  | Backward -> Digraph.iter_in g id f
  | Both ->
    Digraph.iter_out g id f;
    Digraph.iter_in g id f

(* [follow] receives traversal endpoints oriented src=expanded node,
   dst=candidate, regardless of edge direction. *)
let bfs ?(direction = Forward) ?max_depth ?budget ?follow g ~roots =
  Walk_scratch.with_scratch ~bound:(Digraph.bound g) @@ fun s ->
  let gen = Walk_scratch.next_gen s in
  let head = ref 0 and tail = ref 0 in
  let order = ref [] in
  let truncated = ref false in
  let expansions = ref 0 in
  let within_budget () =
    match budget with
    | None -> true
    | Some b -> if !expansions >= b then (truncated := true; false) else true
  in
  let within_depth d =
    match max_depth with
    | None -> true
    | Some m -> if d >= m then (truncated := true; false) else true
  in
  let reach id d =
    s.stamp.(id) <- gen;
    s.depth.(id) <- d;
    s.queue.(!tail) <- id;
    incr tail;
    order := (id, d) :: !order
  in
  List.iter
    (fun root -> if Digraph.mem_node g root && s.stamp.(root) <> gen then reach root 0)
    roots;
  let current = ref 0 in
  let visit next e =
    if
      s.stamp.(next) <> gen
      && match follow with None -> true | Some f -> f ~src:!current ~dst:next e
    then reach next (s.depth.(!current) + 1)
  in
  let continue = ref true in
  while !continue && !head < !tail do
    if not (within_budget ()) then continue := false
    else begin
      current := s.queue.(!head);
      incr head;
      incr expansions;
      if within_depth s.depth.(!current) then iter_neighbors direction g !current visit
    end
  done;
  { visited = List.rev !order; truncated = !truncated }

let reachable ?direction ?max_depth ?budget ?follow g ~roots =
  let result = bfs ?direction ?max_depth ?budget ?follow g ~roots in
  let depth = Hashtbl.create 64 in
  List.iter (fun (id, d) -> Hashtbl.replace depth id d) result.visited;
  ({ visited = (); truncated = result.truncated }, depth)

let without_roots roots outcome =
  let root_set = List.sort_uniq Int.compare roots in
  {
    outcome with
    visited =
      List.filter (fun (id, _) -> not (List.mem id root_set)) outcome.visited;
  }

let ancestors ?max_depth ?budget g id =
  without_roots [ id ] (bfs ~direction:Backward ?max_depth ?budget g ~roots:[ id ])

let descendants ?max_depth ?budget g id =
  without_roots [ id ] (bfs ~direction:Forward ?max_depth ?budget g ~roots:[ id ])

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
