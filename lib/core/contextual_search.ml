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

(* Every page's running score, its text part and its graph part, in
   arrays indexed by page id: a page has sums in this response iff
   [stamp.(page) = gen], and the first [count] entries of [pages] list
   those pages.  Each domain has its own; nothing a response calls
   starts another on the same domain. *)
type sums = {
  mutable stamp : int array;
  mutable total : float array;
  mutable text : float array;
  mutable graph : float array;
  mutable pages : int array;
  mutable count : int;
  mutable gen : int;
}

let sums_key =
  Domain.DLS.new_key (fun () ->
      { stamp = [||]; total = [||]; text = [||]; graph = [||]; pages = [||]; count = 0; gen = 0 })

(* This domain's sums, emptied and sized for every node of [store]. *)
let fresh_sums store =
  let s = Domain.DLS.get sums_key in
  let bound = Provgraph.Digraph.bound (Prov_store.graph store) and have = Array.length s.stamp in
  if have < bound then begin
    let n = max bound (2 * have) in
    s.stamp <- Array.make n 0;
    s.total <- Array.make n 0.0;
    s.text <- Array.make n 0.0;
    s.graph <- Array.make n 0.0;
    s.pages <- Array.make n 0
  end;
  s.gen <- s.gen + 1;
  s.count <- 0;
  s

(* Gives [page] zero sums the first time it is summed. *)
let touch s page =
  if s.stamp.(page) <> s.gen then begin
    s.stamp.(page) <- s.gen;
    s.total.(page) <- 0.0;
    s.text.(page) <- 0.0;
    s.graph.(page) <- 0.0;
    s.pages.(s.count) <- page;
    s.count <- s.count + 1
  end

let rank_results ?(limit = 10) s =
  let pages = Array.sub s.pages 0 s.count in
  Array.sort
    (fun pa pb ->
      let c = Float.compare s.total.(pb) s.total.(pa) in
      if c <> 0 then c else Int.compare pa pb)
    pages;
  List.init (max 0 (min limit s.count)) (fun i ->
      let page = pages.(i) in
      { page; score = s.total.(page); text_score = s.text.(page); graph_score = s.graph.(page) })

let textual_only ?(limit = 10) index query =
  let store = Prov_text_index.store index in
  let s = fresh_sums store in
  List.iter
    (fun (node, score) ->
      match page_target store node (Prov_store.node store node) with
      | Some page ->
        touch s page;
        s.total.(page) <- s.total.(page) +. score;
        s.text.(page) <- s.text.(page) +. score
      | None -> ())
    (Prov_text_index.search ~limit:(limit * 4) index query);
  rank_results ~limit s

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
  ( Provgraph.Subgraph.induce graph ~follow (List.map fst outcome.Provgraph.Traversal.visited),
    outcome.Provgraph.Traversal.truncated )

(* Shared post-processing for every algorithm: combine text scores and
   a graph score table (whose keys are nodes of the store) onto visible
   pages. *)
let respond config ~limit ~running ~truncated store hits graph_scores =
  let s = fresh_sums store in
  let bump page ~text ~graph_mass =
    touch s page;
    s.total.(page) <-
      s.total.(page) +. (config.text_weight *. text) +. (config.graph_weight *. graph_mass);
    s.text.(page) <- s.text.(page) +. text;
    s.graph.(page) <- s.graph.(page) +. graph_mass
  in
  List.iter
    (fun (node, score) ->
      match page_target store node (Prov_store.node store node) with
      | Some page -> bump page ~text:score ~graph_mass:0.0
      | None -> ())
    hits;
  Hashtbl.iter
    (fun node mass ->
      match page_target store node (Prov_store.node store node) with
      | Some page -> bump page ~text:0.0 ~graph_mass:mass
      | None -> ())
    graph_scores;
  {
    results = rank_results ~limit s;
    truncated = Query_budget.was_truncated running truncated;
    elapsed_ms = Query_budget.elapsed_ms running;
  }

let seeds_of config hits = List.filteri (fun i _ -> i < config.seed_count) hits

(* Ranks the focused subgraph around the text seeds: [rank sub seeds]
   gives each member's graph score by local id.  The scores reach
   [respond] in a table made for the member count and filled in
   ascending node order, which iterates in the order the Hashtbl-based
   rankers' tables did, so each page's sum keeps its order. *)
let search_focused config ~budget ~limit index query rank =
  let running = Query_budget.start budget in
  let store = Prov_text_index.store index in
  let hits = Prov_text_index.search ~limit:(max (limit * 4) (config.seed_count * 4)) index query in
  let seeds = seeds_of config hits in
  let sub, truncated =
    focused_subgraph config ~budget_nodes:(Query_budget.remaining_nodes running) store seeds
  in
  let n = Provgraph.Subgraph.size sub in
  Query_budget.consume_nodes running n;
  let score = rank sub seeds in
  let graph_scores = Hashtbl.create n in
  Array.iteri
    (fun i id -> Hashtbl.replace graph_scores id (score i))
    sub.Provgraph.Subgraph.members;
  respond config ~limit ~running ~truncated store hits graph_scores

let search_pagerank ?(config = default_config) ?(budget = Query_budget.unlimited)
    ?(limit = 10) index query =
  search_focused config ~budget ~limit index query (fun sub seeds ->
      let pr = Provgraph.Pagerank.run ~personalization:seeds sub in
      (* Scale the rank mass so its magnitude is comparable to text scores. *)
      let scale = float_of_int (max 1 (Provgraph.Subgraph.size sub)) in
      fun i -> pr.(i) *. scale /. 10.0)

let search_hits ?(config = default_config) ?(budget = Query_budget.unlimited) ?(limit = 10)
    index query =
  search_focused config ~budget ~limit index query (fun sub _ ->
      let { Provgraph.Hits.hub; authority } = Provgraph.Hits.run sub in
      fun i -> authority.(i) +. (0.5 *. hub.(i)))

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
