module Neighborhood = Provgraph.Neighborhood

type config = {
  seed_count : int;
  max_hops : int;
  decay : float;
  text_weight : float;
  graph_weight : float;
  follow_non_user_edges : bool;
  follow_time_edges : bool;
  degree_normalize : bool;
}

let default_config =
  {
    seed_count = 8;
    max_hops = 3;
    decay = 0.5;
    text_weight = 1.0;
    graph_weight = 1.0;
    follow_non_user_edges = true;
    follow_time_edges = false;
    degree_normalize = false;
  }

type result = { page : int; score : float; text_score : float; graph_score : float }

type response = { results : result list; truncated : bool; elapsed_ms : float }

(* Map any scored node onto the page it speaks about.  Pages that were
   only ever embedded content or redirect hops are hidden from results,
   exactly as Places hides them from history search. *)
let page_target store id (n : Prov_node.t) =
  let visible page = if Prov_store.page_hidden store page then None else Some page in
  match n.Prov_node.kind with
  | Prov_node.Page _ -> visible id
  | Prov_node.Visit _ -> Option.bind (Prov_store.page_of_visit store id) visible
  | Prov_node.Bookmark { url; _ } -> Option.bind (Prov_store.page_of_url store url) visible
  | Prov_node.Search_term _ | Prov_node.Download _ | Prov_node.Form_submission _ -> None

let rank_results ?(limit = 10) scored =
  let all = Hashtbl.fold (fun page r acc -> (page, r) :: acc) scored [] in
  let sorted =
    List.sort
      (fun (pa, (sa, _, _)) (pb, (sb, _, _)) ->
        let c = Float.compare sb sa in
        if c <> 0 then c else Int.compare pa pb)
      all
  in
  List.filteri (fun i _ -> i < limit)
    (List.map
       (fun (page, (score, text_score, graph_score)) -> { page; score; text_score; graph_score })
       sorted)

let textual_only ?(limit = 10) index query =
  let store = Prov_text_index.store index in
  let scored = Hashtbl.create 32 in
  List.iter
    (fun (node, s) ->
      match page_target store node (Prov_store.node store node) with
      | Some page ->
        let prev, pt, _ =
          Option.value ~default:(0.0, 0.0, 0.0) (Hashtbl.find_opt scored page)
        in
        Hashtbl.replace scored page (prev +. s, pt +. s, 0.0)
      | None -> ())
    (Prov_text_index.search ~limit:(limit * 4) index query);
  rank_results ~limit scored

(* The edges the config lets graph scoring walk. *)
let follow config ~src:_ ~dst:_ (e : Prov_edge.t) =
  match e.Prov_edge.kind with
  | Prov_edge.Same_time -> config.follow_time_edges
  | Prov_edge.Redirect | Prov_edge.Embed -> config.follow_non_user_edges
  | Prov_edge.Link_traversal | Prov_edge.Typed_traversal | Prov_edge.Bookmark_traversal
  | Prov_edge.Bookmarked_from | Prov_edge.Form_source | Prov_edge.Form_result
  | Prov_edge.Download_source | Prov_edge.Download_fetch | Prov_edge.Search_query
  | Prov_edge.Searched_from | Prov_edge.Instance | Prov_edge.Tab_spawn
  | Prov_edge.Reload -> true

(* The Kleinberg-style focused subgraph: the seeds plus everything
   within [max_hops], with only the edges the config permits. *)
let focused_subgraph config ~budget_nodes store seeds =
  let graph = Prov_store.graph store in
  let follow = follow config in
  let outcome =
    Provgraph.Traversal.bfs ~direction:Provgraph.Traversal.Both
      ~max_depth:config.max_hops ?budget:budget_nodes ~follow graph
      ~roots:(List.map fst seeds)
  in
  let members = List.map fst outcome.Provgraph.Traversal.visited in
  let sub = Provgraph.Digraph.create ~initial_capacity:(List.length members) () in
  List.iter (fun id -> Provgraph.Digraph.add_node sub id (Prov_store.node store id)) members;
  Provgraph.Digraph.iter_edges graph (fun src dst e ->
      if
        Provgraph.Digraph.mem_node sub src
        && Provgraph.Digraph.mem_node sub dst
        && follow ~src ~dst e
      then Provgraph.Digraph.add_edge sub ~src ~dst e);
  (sub, outcome.Provgraph.Traversal.truncated)

(* Shared post-processing for every algorithm: combine text scores and
   a graph score table onto visible pages. *)
let respond config ~limit ~running ~truncated store hits graph_scores =
  let scored = Hashtbl.create 64 in
  let bump page ~text ~graph_mass =
    let s, ts, gs = Option.value ~default:(0.0, 0.0, 0.0) (Hashtbl.find_opt scored page) in
    Hashtbl.replace scored page
      ( s +. (config.text_weight *. text) +. (config.graph_weight *. graph_mass),
        ts +. text,
        gs +. graph_mass )
  in
  List.iter
    (fun (node, s) ->
      match page_target store node (Prov_store.node store node) with
      | Some page -> bump page ~text:s ~graph_mass:0.0
      | None -> ())
    hits;
  Hashtbl.iter
    (fun node mass ->
      match Prov_store.node_opt store node with
      | None -> ()
      | Some n -> begin
        match page_target store node n with
        | Some page -> bump page ~text:0.0 ~graph_mass:mass
        | None -> ()
      end)
    graph_scores;
  {
    results = rank_results ~limit scored;
    truncated = Query_budget.was_truncated running truncated;
    elapsed_ms = Query_budget.elapsed_ms running;
  }

let seeds_of config hits = List.filteri (fun i _ -> i < config.seed_count) hits

let search_pagerank ?(config = default_config) ?(budget = Query_budget.unlimited)
    ?(limit = 10) ?(damping = 0.85) index query =
  let running = Query_budget.start budget in
  let store = Prov_text_index.store index in
  let hits = Prov_text_index.search ~limit:(max (limit * 4) (config.seed_count * 4)) index query in
  let seeds = seeds_of config hits in
  let sub, truncated =
    focused_subgraph config ~budget_nodes:(Query_budget.remaining_nodes running) store seeds
  in
  Query_budget.consume_nodes running (Provgraph.Digraph.node_count sub);
  let pr = Provgraph.Pagerank.run ~damping ~personalization:seeds sub in
  (* Scale the rank mass so its magnitude is comparable to text scores. *)
  let graph_scores = Hashtbl.create (Hashtbl.length pr) in
  let scale = float_of_int (max 1 (Provgraph.Digraph.node_count sub)) in
  Hashtbl.iter (fun id v -> Hashtbl.replace graph_scores id (v *. scale /. 10.0)) pr;
  respond config ~limit ~running ~truncated store hits graph_scores

let search_hits ?(config = default_config) ?(budget = Query_budget.unlimited) ?(limit = 10)
    index query =
  let running = Query_budget.start budget in
  let store = Prov_text_index.store index in
  let hits = Prov_text_index.search ~limit:(max (limit * 4) (config.seed_count * 4)) index query in
  let seeds = seeds_of config hits in
  let sub, truncated =
    focused_subgraph config ~budget_nodes:(Query_budget.remaining_nodes running) store seeds
  in
  Query_budget.consume_nodes running (Provgraph.Digraph.node_count sub);
  let scores = Provgraph.Hits.run sub in
  let graph_scores = Hashtbl.create 64 in
  Hashtbl.iter
    (fun id authority ->
      let hub = Option.value ~default:0.0 (Hashtbl.find_opt scores.Provgraph.Hits.hub id) in
      Hashtbl.replace graph_scores id (authority +. (0.5 *. hub)))
    scores.Provgraph.Hits.authority;
  respond config ~limit ~running ~truncated store hits graph_scores

let search ?(config = default_config) ?(budget = Query_budget.unlimited) ?(limit = 10)
    index query =
  let running = Query_budget.start budget in
  let store = Prov_text_index.store index in
  let hits = Prov_text_index.search ~limit:(max (limit * 4) (config.seed_count * 4)) index query in
  let seeds = seeds_of config hits in
  let expansion, truncated =
    if Query_budget.out_of_time running then (Hashtbl.create 1, true)
    else begin
      let nconfig =
        {
          Neighborhood.default_config with
          Neighborhood.decay = config.decay;
          max_hops = config.max_hops;
          node_budget = Query_budget.remaining_nodes running;
          degree_normalize = config.degree_normalize;
        }
      in
      let scores, truncated =
        Neighborhood.expand ~config:nconfig ~follow:(follow config) (Prov_store.graph store)
          ~seeds
      in
      Query_budget.consume_nodes running (Hashtbl.length scores);
      (scores, truncated)
    end
  in
  respond config ~limit ~running ~truncated store hits expansion
