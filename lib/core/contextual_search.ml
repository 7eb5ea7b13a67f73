module Neighborhood = Provgraph.Neighborhood
module Scratch = Provkit_util.Scratch

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

(* The page a scored node speaks about, -1 for none.  Pages that were
   only ever embedded content or redirect hops are hidden from results,
   exactly as Places hides them from history search. *)
let page_target store id =
  let page = Prov_store.page_target store id in
  if page >= 0 && not (Prov_store.page_hidden store page) then page else -1

(* Every page's running score, its text part and its graph part, by
   page id; the scratch's members are the pages summed so far. *)
type sums = { pages : Scratch.t; total : float array; text : float array; graph : float array }

let with_sums store f =
  Scratch.with_ ~bound:(Provgraph.Digraph.bound (Prov_store.graph store)) @@ fun pages ->
  f
    {
      pages;
      total = Scratch.floats pages 0;
      text = Scratch.floats pages 1;
      graph = Scratch.floats pages 2;
    }

(* Gives [page] zero sums the first time it is summed. *)
let touch s page =
  if not (Scratch.mem s.pages page) then begin
    Scratch.add s.pages page;
    s.total.(page) <- 0.0;
    s.text.(page) <- 0.0;
    s.graph.(page) <- 0.0
  end

let rank_results ~limit s =
  let n = Scratch.top s.pages s.total limit in
  List.init n (fun i ->
      let page = s.pages.Scratch.heap.(i) in
      { page; score = s.total.(page); text_score = s.text.(page); graph_score = s.graph.(page) })

let textual_only ?(limit = 10) index query =
  let store = Prov_text_index.store index in
  with_sums store @@ fun s ->
  List.iter
    (fun (node, score) ->
      let page = page_target store node in
      if page >= 0 then begin
        touch s page;
        s.total.(page) <- s.total.(page) +. score;
        s.text.(page) <- s.text.(page) +. score
      end)
    (Prov_text_index.search ~limit:(limit * 4) index query);
  rank_results ~limit s

(* The edge kinds the config lets graph scoring walk. *)
let follows config = function
  | Prov_edge.Same_time -> config.follow_time_edges
  | Prov_edge.Redirect | Prov_edge.Embed -> config.follow_non_user_edges
  | Prov_edge.Link_traversal | Prov_edge.Typed_traversal | Prov_edge.Bookmark_traversal
  | Prov_edge.Bookmarked_from | Prov_edge.Form_source | Prov_edge.Form_result
  | Prov_edge.Download_source | Prov_edge.Download_fetch | Prov_edge.Search_query
  | Prov_edge.Searched_from | Prov_edge.Instance | Prov_edge.Tab_spawn
  | Prov_edge.Reload -> true

let mask config = Prov_edge.mask_of (follows config)

(* The Kleinberg-style focused subgraph: the seeds plus everything
   within [max_hops], with only the edges the config permits. *)
let focused_subgraph config ~budget_nodes store seeds =
  let graph = Prov_store.graph store in
  let mask = mask config in
  let outcome =
    Provgraph.Traversal.bfs ~direction:Provgraph.Traversal.Both
      ~max_depth:config.max_hops ?budget:budget_nodes ~mask graph
      ~roots:(List.map fst seeds)
  in
  ( Provgraph.Subgraph.induce ~mask graph (List.map fst outcome.Provgraph.Traversal.visited),
    outcome.Provgraph.Traversal.truncated )

let[@inline] bump config s page ~text ~graph_mass =
  touch s page;
  s.total.(page) <-
    s.total.(page) +. (config.text_weight *. text) +. (config.graph_weight *. graph_mass);
  s.text.(page) <- s.text.(page) +. text;
  s.graph.(page) <- s.graph.(page) +. graph_mass

(* Shared post-processing for every algorithm: combine text scores and
   graph scores onto visible pages.  The graph-scored nodes are
   [nodes.(0 .. count - 1)], in the order their masses are summed, and
   [masses.(node)] is each one's score. *)
let respond config ~limit ~running ~truncated store hits ~nodes ~count ~masses =
  with_sums store @@ fun s ->
  List.iter
    (fun (node, score) ->
      let page = page_target store node in
      if page >= 0 then bump config s page ~text:score ~graph_mass:0.0)
    hits;
  for i = 0 to count - 1 do
    let node = nodes.(i) in
    let page = page_target store node in
    if page >= 0 then bump config s page ~text:0.0 ~graph_mass:masses.(node)
  done;
  {
    results = rank_results ~limit s;
    truncated = Query_budget.was_truncated running truncated;
    elapsed_ms = Query_budget.elapsed_ms running;
  }

let seeds_of config hits = List.filteri (fun i _ -> i < config.seed_count) hits

(* Ranks the focused subgraph around the text seeds: [rank sub seeds]
   gives each member's graph score by local id.  The scores reach
   [respond] in the order a table made for the member count and filled
   in ascending node order iterates, which is the order the
   Hashtbl-based rankers' tables did, so each page's sum keeps its
   order. *)
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
  Scratch.with_ ~bound:(Provgraph.Digraph.bound (Prov_store.graph store)) @@ fun scored ->
  let masses = Scratch.floats scored 0 in
  Hashtbl.iter
    (fun id mass ->
      Scratch.add scored id;
      masses.(id) <- mass)
    graph_scores;
  respond config ~limit ~running ~truncated store hits ~nodes:scored.Scratch.ids
    ~count:scored.Scratch.count ~masses

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
  if Query_budget.out_of_time running then
    respond config ~limit ~running ~truncated:true store hits ~nodes:[||] ~count:0 ~masses:[||]
  else begin
    let nconfig =
      {
        Neighborhood.decay = config.decay;
        max_hops = config.max_hops;
        node_budget = Query_budget.remaining_nodes running;
        degree_normalize = config.degree_normalize;
      }
    in
    Neighborhood.expand ~config:nconfig ~mask:(mask config) (Prov_store.graph store) ~seeds
    @@ fun { Neighborhood.reached; scores; truncated } ->
    Query_budget.consume_nodes running reached.Scratch.count;
    respond config ~limit ~running ~truncated store hits ~nodes:reached.Scratch.ids
      ~count:reached.Scratch.count ~masses:scores
  end
