module Traversal = Provgraph.Traversal

type recognizer = int -> bool

let default_recognizer ?(min_visits = 3) store id =
  match Prov_store.node_opt store id with
  | None -> false
  | Some n -> begin
    match n.Prov_node.kind with
    | Prov_node.Page _ ->
      (* Only visits the user actually saw count: a file fetched five
         times was never *seen* five times. *)
      Prov_store.page_displayed_visit_count store id >= min_visits
      || Prov_store.page_typed store id
    | Prov_node.Bookmark _ | Prov_node.Search_term _ -> true
    | Prov_node.Visit _ | Prov_node.Download _ | Prov_node.Form_submission _ -> false
  end

let causal_follow ~src:_ ~dst:_ (e : Prov_edge.t) = Prov_edge.is_causal e.Prov_edge.kind

type ancestry = { ancestors : (int * int) list; truncated : bool; elapsed_ms : float }

let ancestors ?(budget = Query_budget.unlimited) ?max_depth store id =
  let running = Query_budget.start budget in
  let outcome =
    Traversal.bfs ~direction:Traversal.Backward ?max_depth
      ?budget:(Query_budget.remaining_nodes running) ~follow:causal_follow
      (Prov_store.graph store) ~roots:[ id ]
  in
  let ancestors =
    List.filter (fun (node, _) -> node <> id) outcome.Traversal.visited
  in
  {
    ancestors;
    truncated = Query_budget.was_truncated running outcome.Traversal.truncated;
    elapsed_ms = Query_budget.elapsed_ms running;
  }

type origin = {
  node : int;
  distance : int;
  path : int list;
  truncated : bool;
  elapsed_ms : float;
}

let first_recognizable ?(budget = Query_budget.unlimited) ?recognizer store id =
  let running = Query_budget.start budget in
  let recognize =
    match recognizer with Some r -> r | None -> default_recognizer store
  in
  let graph = Prov_store.graph store in
  (* Hand-rolled backward BFS so the walk stops at the first (nearest)
     recognizable ancestor instead of exhausting the whole ancestry —
     origins are typically a handful of hops away while ancestries span
     whole sessions. *)
  let depth = Hashtbl.create 64 in
  let parent = Hashtbl.create 64 in
  Hashtbl.replace depth id 0;
  let queue = Queue.create () in
  Queue.push id queue;
  let found = ref None in
  let truncated = ref false in
  let expansions = ref 0 in
  while !found = None && not (Queue.is_empty queue) do
    (match Query_budget.remaining_nodes running with
    | Some r when !expansions >= r ->
      truncated := true;
      Queue.clear queue
    | _ -> ());
    if not (Queue.is_empty queue) then begin
      let current = Queue.pop queue in
      incr expansions;
      let d = Hashtbl.find depth current in
      let parents =
        List.filter_map
          (fun (src, (e : Prov_edge.t)) ->
            if causal_follow ~src:current ~dst:src e then Some src else None)
          (Provgraph.Digraph.in_edges graph current)
      in
      List.iter
        (fun ancestor ->
          if !found = None && not (Hashtbl.mem depth ancestor) then begin
            Hashtbl.replace depth ancestor (d + 1);
            Hashtbl.replace parent ancestor current;
            if recognize ancestor then found := Some (ancestor, d + 1)
            else Queue.push ancestor queue
          end)
        parents
    end
  done;
  Query_budget.consume_nodes running !expansions;
  let truncated = Query_budget.was_truncated running !truncated in
  match !found with
  | None -> None
  | Some (node, distance) ->
    (* Reconstruct the action path from the BFS parent pointers. *)
    let rec build acc v = if v = id then v :: acc else build (v :: acc) (Hashtbl.find parent v) in
    let path = build [] node in
    Some { node; distance; path; truncated; elapsed_ms = Query_budget.elapsed_ms running }

type descendants = {
  downloads : int list;
  visited : int;
  truncated : bool;
  elapsed_ms : float;
}

let downloads_descending ?(budget = Query_budget.unlimited) store id =
  let running = Query_budget.start budget in
  let outcome =
    Traversal.bfs ~direction:Traversal.Forward
      ?budget:(Query_budget.remaining_nodes running) ~follow:causal_follow
      (Prov_store.graph store) ~roots:[ id ]
  in
  let downloads =
    List.sort Int.compare
      (List.filter_map
         (fun (node, _) ->
           match Prov_store.node_opt store node with
           | Some n when Prov_node.is_download n -> Some node
           | _ -> None)
         outcome.Traversal.visited)
  in
  {
    downloads;
    visited = List.length outcome.Traversal.visited;
    truncated = Query_budget.was_truncated running outcome.Traversal.truncated;
    elapsed_ms = Query_budget.elapsed_ms running;
  }

let describe_path store path =
  List.map
    (fun id ->
      match Prov_store.node_opt store id with
      | Some n -> Prov_node.display n
      | None -> Printf.sprintf "#%d (unknown)" id)
    path
