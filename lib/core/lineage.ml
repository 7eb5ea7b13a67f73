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

type ancestry = { ancestors : (int * int) list; truncated : bool; elapsed_ms : float }

let ancestors ?(budget = Query_budget.unlimited) ?max_depth store id =
  let running = Query_budget.start budget in
  let outcome =
    Traversal.ancestors ?max_depth ?budget:(Query_budget.remaining_nodes running)
      ~mask:Prov_edge.causal_mask (Prov_store.graph store) id
  in
  {
    ancestors = outcome.Traversal.visited;
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

(* The walk stops at the first (nearest) recognizable ancestor instead
   of exhausting the whole ancestry: origins are typically a handful of
   hops away while ancestries span whole sessions. *)
let first_recognizable ?(budget = Query_budget.unlimited) ?recognizer store id =
  let running = Query_budget.start budget in
  let recognize =
    match recognizer with Some r -> r | None -> default_recognizer store
  in
  let outcome =
    Traversal.first_match ~direction:Traversal.Backward
      ?budget:(Query_budget.remaining_nodes running) ~mask:Prov_edge.causal_mask
      (Prov_store.graph store) ~root:id recognize
  in
  Query_budget.consume_nodes running outcome.Traversal.expansions;
  let truncated = Query_budget.was_truncated running outcome.Traversal.truncated in
  Option.map
    (fun { Traversal.node; depth; path } ->
      { node; distance = depth; path; truncated; elapsed_ms = Query_budget.elapsed_ms running })
    outcome.Traversal.visited

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
      ?budget:(Query_budget.remaining_nodes running) ~mask:Prov_edge.causal_mask
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
