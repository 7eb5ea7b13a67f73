module Prng = Provkit_util.Prng
module Stats = Provkit_util.Stats
module Timing = Provkit_util.Timing
module Web = Webmodel.Web_graph
module UM = Browser.User_model

let take n l = List.filteri (fun i _ -> i < n) l

let fmt_int = string_of_int

let summarize_ms samples =
  match samples with
  | [] -> ("-", "-", "-", "-", "-")
  | _ ->
    let s = Stats.summarize samples in
    ( Report.fmt_ms s.Stats.p50,
      Report.fmt_ms s.Stats.p90,
      Report.fmt_ms s.Stats.p99,
      Report.fmt_ms s.Stats.max,
      Report.fmt_pct
        (float_of_int (List.length (List.filter (fun ms -> ms < 200.0) samples))
        /. float_of_int (List.length samples)) )

(* ------------------------------------------------------------------ *)
(* E1: history scale                                                    *)
(* ------------------------------------------------------------------ *)

let e1_history_scale (ds : Dataset.t) =
  let store = Dataset.store ds in
  let stats = Core.Prov_store.stats store in
  let places = Dataset.places ds in
  let days = ds.Dataset.trace.UM.span_days in
  let nodes = stats.Core.Prov_store.nodes_total in
  let rows =
    [
      [ "simulated days"; fmt_int days ];
      [ "user actions"; fmt_int ds.Dataset.trace.UM.total_actions ];
      [ "searches"; fmt_int (List.length ds.Dataset.trace.UM.searches) ];
      [ "downloads"; fmt_int (List.length ds.Dataset.trace.UM.downloads) ];
      [ "places (urls)"; fmt_int (Browser.Places_db.place_count places) ];
      [ "places visits"; fmt_int (Browser.Places_db.visit_count places) ];
      [ "provenance nodes"; fmt_int nodes ];
      [ "provenance edges"; fmt_int stats.Core.Prov_store.edges_total ];
      [ "nodes per day"; Printf.sprintf "%.0f" (float_of_int nodes /. float_of_int days) ];
    ]
    @ List.map
        (fun (k, n) -> [ "  node kind " ^ k; fmt_int n ])
        stats.Core.Prov_store.nodes_by_kind
  in
  {
    Report.id = "E1-history-scale";
    title = "History graph scale after simulated browsing";
    paper_claim =
      "\"one author's history has accumulated more than 25,000 nodes over the past 79 days\" (S3)";
    header = [ "metric"; "value" ];
    rows;
    notes =
      [
        Printf.sprintf "claim reproduced: %d nodes over %d days (paper: >25,000 over 79)"
          nodes days;
      ];
  }

(* ------------------------------------------------------------------ *)
(* E2: storage overhead                                                 *)
(* ------------------------------------------------------------------ *)

let e2_storage_overhead (ds : Dataset.t) =
  let places_db = Browser.Places_db.database (Dataset.places ds) in
  let prov_db = Core.Prov_schema.to_database (Dataset.store ds) in
  let p = Relstore.Database.total_size places_db in
  let v = Relstore.Database.total_size prov_db in
  let overhead = (float_of_int v /. float_of_int p) -. 1.0 in
  let breakdown name db =
    List.map
      (fun b ->
        [
          name;
          b.Relstore.Database.table_name;
          fmt_int b.Relstore.Database.rows;
          Report.fmt_bytes b.Relstore.Database.data_bytes;
          Report.fmt_bytes b.Relstore.Database.index_bytes;
        ])
      (Relstore.Database.size_breakdown db)
  in
  let rows =
    breakdown "places" places_db
    @ breakdown "provenance" prov_db
    @ [
        [ "places"; "TOTAL"; ""; Report.fmt_bytes p; "" ];
        [ "provenance"; "TOTAL"; ""; Report.fmt_bytes v; "" ];
      ]
  in
  {
    Report.id = "E2-storage-overhead";
    title = "Provenance schema size vs the Places baseline";
    paper_claim =
      "\"total storage overhead of this schema over Places is 39.5%, ... less than 5MB\" (S4)";
    header = [ "database"; "table"; "rows"; "data"; "indexes" ];
    rows;
    notes =
      [
        Printf.sprintf "measured overhead: %s (paper: 39.5%%)" (Report.fmt_pct overhead);
        Printf.sprintf "absolute provenance store size: %s (paper: <5MB)" (Report.fmt_bytes v);
      ];
  }

(* ------------------------------------------------------------------ *)
(* E3: query latency                                                    *)
(* ------------------------------------------------------------------ *)

let sample_queries (ds : Dataset.t) ~n rng =
  let from_searches =
    List.map (fun (e : UM.search_episode) -> e.UM.query) ds.Dataset.trace.UM.searches
  in
  let topic_names =
    List.init (Web.topic_count ds.Dataset.web) (fun i ->
        Webmodel.Topic.name (Web.topic ds.Dataset.web i))
  in
  let pool = Array.of_list (from_searches @ topic_names) in
  if Array.length pool = 0 then []
  else List.init n (fun _ -> Prng.pick rng pool)

let download_nodes (ds : Dataset.t) =
  List.filter_map
    (fun (d : UM.download_episode) ->
      Core.Prov_store.download_node (Dataset.store ds) d.UM.download_id)
    ds.Dataset.trace.UM.downloads

let e3_query_latency ?(samples = 120) (ds : Dataset.t) =
  let rng = Prng.create (ds.Dataset.seed + 31) in
  let index = Core.Api.text_index ds.Dataset.api in
  let time_index = Dataset.time_index ds in
  let store = Dataset.store ds in
  let queries = sample_queries ds ~n:samples rng in
  let contextual_ms =
    List.map
      (fun q -> snd (Timing.time_ms (fun () -> Core.Contextual_search.search index q)))
      queries
  in
  let personalize_ms =
    List.map
      (fun q -> snd (Timing.time_ms (fun () -> Core.Personalize.expand index q)))
      (take (samples / 2) queries)
  in
  let contexts =
    match ds.Dataset.trace.UM.duals with
    | [] -> List.map (fun q -> (q, "travel")) (take 20 queries)
    | duals ->
      List.map
        (fun (d : UM.dual_episode) ->
          (Webmodel.Topic.name (Web.topic ds.Dataset.web d.UM.focus_topic), d.UM.other_term))
        duals
  in
  let time_ms =
    List.map
      (fun (q, c) ->
        snd
          (Timing.time_ms (fun () ->
               Core.Time_search.search index time_index ~query:q ~context:c)))
      contexts
  in
  let dls = take samples (download_nodes ds) in
  let lineage_ms =
    List.map
      (fun node ->
        snd (Timing.time_ms (fun () -> Core.Lineage.first_recognizable store node)))
      dls
  in
  let descend_roots =
    take (samples / 2)
      (List.concat_map (fun ti -> Web.hubs_of_topic ds.Dataset.web ti)
         (List.init (Web.topic_count ds.Dataset.web) Fun.id))
  in
  let descend_ms =
    List.filter_map
      (fun hub ->
        match Dataset.page_node ds hub with
        | None -> None
        | Some node ->
          Some (snd (Timing.time_ms (fun () -> Core.Lineage.downloads_descending store node))))
      descend_roots
  in
  (* Bounded runs: the paper's "can be bound to that time" mechanism. *)
  let budget = Core.Query_budget.paper_default in
  let bounded =
    List.map
      (fun q ->
        let r = Core.Contextual_search.search ~budget index q in
        (r.Core.Contextual_search.elapsed_ms, r.Core.Contextual_search.truncated))
      queries
  in
  let bounded_ms = List.map fst bounded in
  let truncation_rate =
    float_of_int (List.length (List.filter snd bounded))
    /. float_of_int (max 1 (List.length bounded))
  in
  let row name samples =
    let p50, p90, p99, mx, under = summarize_ms samples in
    [ name; fmt_int (List.length samples); p50; p90; p99; mx; under ]
  in
  {
    Report.id = "E3-query-latency";
    title = "Use-case query latency on the full history";
    paper_claim =
      "\"These queries complete in less than 200ms in the majority of cases and can be bound to that time in the remaining cases\" (S4)";
    header = [ "query"; "n"; "p50"; "p90"; "p99"; "max"; "<200ms" ];
    rows =
      [
        row "contextual history search" contextual_ms;
        row "personalized web search" personalize_ms;
        row "time-contextual search" time_ms;
        row "download lineage (ancestors)" lineage_ms;
        row "downloads-descending" descend_ms;
        row "contextual (200ms budget)" bounded_ms;
      ];
    notes =
      [
        Printf.sprintf "bounded contextual runs truncated in %s of cases"
          (Report.fmt_pct truncation_rate);
      ];
  }

(* ------------------------------------------------------------------ *)
(* E4: contextual history search quality                                *)
(* ------------------------------------------------------------------ *)

type e4_episode = {
  query : string;
  target_node : int;  (* page node in the full store *)
  target_place : int;  (* place id in the Places baseline *)
  opaque : bool;  (* query terms absent from the target's own text *)
}

let e4_episodes ?(max_episodes = 250) (ds : Dataset.t) =
  let store = Dataset.store ds in
  take max_episodes
    (List.filter_map
       (fun (e : UM.search_episode) ->
         match e.UM.clicked_page with
         | None -> None
         | Some page -> begin
           match (Dataset.page_node ds page, Dataset.place_of_web_page ds page) with
           | Some target_node, Some place ->
             let target_terms =
               Core.Prov_node.text_terms (Core.Prov_store.node store target_node)
             in
             let query_terms = Textindex.Tokenizer.terms e.UM.query in
             let opaque =
               query_terms <> []
               && not (List.exists (fun t -> List.mem t target_terms) query_terms)
             in
             Some
               {
                 query = e.UM.query;
                 target_node;
                 target_place = place.Browser.Places_db.place_id;
                 opaque;
               }
           | _ -> None
         end)
       ds.Dataset.trace.UM.searches)

let quality_metrics ranks =
  (Core.Metrics.mrr ranks, Core.Metrics.hit_at 1 ranks, Core.Metrics.hit_at 5 ranks)

let e4_row name ranks =
  let mrr, h1, h5 = quality_metrics ranks in
  [ name; fmt_int (List.length ranks); Report.fmt_f mrr; Report.fmt_pct h1; Report.fmt_pct h5 ]

let e4_contextual_quality ?(max_episodes = 250) (ds : Dataset.t) =
  let episodes = e4_episodes ~max_episodes ds in
  let index = Core.Api.text_index ds.Dataset.api in
  let baseline = Browser.History_search.build (Dataset.places ds) in
  let baseline_rank ep =
    Core.Metrics.rank_of ~equal:Int.equal ep.target_place
      (List.map
         (fun (r : Browser.History_search.result) -> r.Browser.History_search.place_id)
         (Browser.History_search.search ~limit:10 baseline ep.query))
  in
  let contextual_rank ep =
    let resp = Core.Contextual_search.search ~limit:10 index ep.query in
    Core.Metrics.rank_of ~equal:Int.equal ep.target_node
      (List.map (fun r -> r.Core.Contextual_search.page) resp.Core.Contextual_search.results)
  in
  let opaque = List.filter (fun ep -> ep.opaque) episodes in
  let rows =
    [
      e4_row "textual baseline (all)" (List.map baseline_rank episodes);
      e4_row "provenance contextual (all)" (List.map contextual_rank episodes);
      e4_row "textual baseline (opaque)" (List.map baseline_rank opaque);
      e4_row "provenance contextual (opaque)" (List.map contextual_rank opaque);
    ]
  in
  {
    Report.id = "E4-contextual-quality";
    title = "Finding the page the user clicked after a search";
    paper_claim =
      "\"history search for rosebud ... expects ... Citizen Kane, because she found Citizen Kane with that search term\"; textual search \"will not return Citizen Kane\" (S2.1)";
    header = [ "system"; "episodes"; "MRR"; "hit@1"; "hit@5" ];
    rows;
    notes =
      [
        "opaque = the clicked page shares no text with the query (the pure rosebud case)";
        "each episode asks: searching your history later for the same terms, does the page you actually clicked come back?";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E5: personalizing web search                                         *)
(* ------------------------------------------------------------------ *)

let e5_personalization ?(max_episodes = 100) (ds : Dataset.t) =
  let index = Core.Api.text_index ds.Dataset.api in
  let ambiguities = Web.ambiguities ds.Dataset.web in
  let episodes =
    take max_episodes
      (List.filter (fun (e : UM.search_episode) -> e.UM.ambiguous) ds.Dataset.trace.UM.searches)
  in
  let sense_pages (e : UM.search_episode) =
    match List.find_opt (fun a -> a.Web.term = e.UM.query) ambiguities with
    | None -> []
    | Some a ->
      if e.UM.intended_topic = a.Web.topic_a then a.Web.pages_a
      else if e.UM.intended_topic = a.Web.topic_b then a.Web.pages_b
      else []
  in
  let rank_of_sense query pages =
    let results =
      List.map
        (fun (r : Webmodel.Search_engine.result) -> r.Webmodel.Search_engine.page)
        (Webmodel.Search_engine.search ~limit:10 ds.Dataset.search_engine query)
    in
    let ranks = List.filter_map (fun p -> Core.Metrics.rank_of ~equal:Int.equal p results) pages in
    match ranks with [] -> None | _ -> Some (List.fold_left min max_int ranks)
  in
  let evaluated =
    List.filter_map
      (fun e ->
        match sense_pages e with
        | [] -> None
        | pages ->
          let raw = rank_of_sense e.UM.query pages in
          let expansion = Core.Personalize.expand index e.UM.query in
          let expanded = rank_of_sense expansion.Core.Personalize.expanded pages in
          Some (e.UM.query, raw, expanded, expansion.Core.Personalize.added_terms))
      episodes
  in
  let raw_ranks = List.map (fun (_, r, _, _) -> r) evaluated in
  let exp_ranks = List.map (fun (_, _, r, _) -> r) evaluated in
  let sample_terms =
    match evaluated with
    | (_, _, _, terms) :: _ -> String.concat ", " (List.map fst terms)
    | [] -> "-"
  in
  {
    Report.id = "E5-personalization-quality";
    title = "Rank of the user's intended sense in web search";
    paper_claim =
      "\"it could supplement a rosebud web search with flower as an additional search term\" ... \"without giving information about the user to the search engine\" (S2.2)";
    header = [ "system"; "queries"; "MRR"; "hit@1"; "hit@5" ];
    rows =
      [ e4_row "raw ambiguous query" raw_ranks; e4_row "provenance-expanded query" exp_ranks ];
    notes =
      [
        Printf.sprintf "example expansion terms chosen from history: %s" sample_terms;
        "the search engine sees only the expanded string, never the history (privacy argument of S2.2)";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E6: time-contextual search                                           *)
(* ------------------------------------------------------------------ *)

let e6_time_context (ds : Dataset.t) =
  let index = Core.Api.text_index ds.Dataset.api in
  let time_index = Dataset.time_index ds in
  let episodes =
    List.filter_map
      (fun (d : UM.dual_episode) ->
        match Dataset.page_node ds d.UM.focus_page with
        | None -> None
        | Some target ->
          Some
            ( Webmodel.Topic.name (Web.topic ds.Dataset.web d.UM.focus_topic),
              d.UM.other_term,
              target ))
      ds.Dataset.trace.UM.duals
  in
  let plain_rank (query, _, target) =
    Core.Metrics.rank_of ~equal:Int.equal target
      (List.map
         (fun (r : Core.Contextual_search.result) -> r.Core.Contextual_search.page)
         (Core.Contextual_search.textual_only ~limit:10 index query))
  in
  let time_rank (query, context, target) =
    let resp = Core.Time_search.search ~limit:10 index time_index ~query ~context in
    Core.Metrics.rank_of ~equal:Int.equal target
      (List.map (fun (r : Core.Time_search.result) -> r.Core.Time_search.page) resp.Core.Time_search.results)
  in
  {
    Report.id = "E6-time-context-quality";
    title = "\"wine associated with plane tickets\": narrowing a broad search";
    paper_claim =
      "\"A history search for 'wine associated with plane tickets' is both natural to the user and likely to return the desired result\" (S2.3)";
    header = [ "system"; "episodes"; "MRR"; "hit@1"; "hit@5" ];
    rows =
      [
        e4_row "plain textual search (topic only)" (List.map plain_rank episodes);
        e4_row "time-contextual search" (List.map time_rank episodes);
      ];
    notes =
      [
        "episodes are dual-topic sessions: reading topic A in one tab while searching topic B in another";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E7: download lineage                                                 *)
(* ------------------------------------------------------------------ *)

let e7_download_lineage ?(max_episodes = 150) (ds : Dataset.t) =
  let store = Dataset.store ds in
  let episodes = take max_episodes ds.Dataset.trace.UM.downloads in
  let lineage_results =
    List.filter_map
      (fun (d : UM.download_episode) ->
        match Core.Prov_store.download_node store d.UM.download_id with
        | None -> None
        | Some node -> Some (d, node, Core.Lineage.first_recognizable store node))
      episodes
  in
  let found = List.filter (fun (_, _, o) -> o <> None) lineage_results in
  let distances =
    List.filter_map
      (fun (_, _, o) -> Option.map (fun (r : Core.Lineage.origin) -> float_of_int r.Core.Lineage.distance) o)
      lineage_results
  in
  let descend_recall =
    List.map
      (fun (d, node, _) ->
        match Dataset.page_node ds d.UM.host_page with
        | None -> 0.0
        | Some host ->
          let r = Core.Lineage.downloads_descending store host in
          if List.mem node r.Core.Lineage.downloads then 1.0 else 0.0)
      lineage_results
  in
  let mean l = Stats.mean l in
  let dist_stats =
    match distances with
    | [] -> "-"
    | _ ->
      let s = Stats.summarize distances in
      Printf.sprintf "mean %.1f / p90 %.0f / max %.0f" s.Stats.mean s.Stats.p90 s.Stats.max
  in
  {
    Report.id = "E7-download-lineage";
    title = "First recognizable ancestor and descendant downloads";
    paper_claim =
      "\"Find the first ancestor of this file that the user is likely to recognize\"; \"Find all descendants of this page that are downloads\" (S2.4)";
    header = [ "metric"; "value" ];
    rows =
      [
        [ "downloads evaluated"; fmt_int (List.length lineage_results) ];
        [
          "recognizable origin found";
          Report.fmt_pct
            (float_of_int (List.length found) /. float_of_int (max 1 (List.length lineage_results)));
        ];
        [ "hops to origin"; dist_stats ];
        [ "descendant query recalls the download"; Report.fmt_pct (mean descend_recall) ];
      ];
    notes =
      [
        "recognizable = page visited >=3 times, ever typed, a bookmark, or one of the user's own search terms";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E8: scaling sweep                                                    *)
(* ------------------------------------------------------------------ *)

let e8_scaling ?(days_list = [ 10; 20; 40; 79 ]) ~seed () =
  let rows =
    List.map
      (fun days ->
        let ds = Dataset.with_days ~seed days in
        let store = Dataset.store ds in
        let index = Core.Api.text_index ds.Dataset.api in
        let rng = Prng.create (seed + days) in
        let queries = sample_queries ds ~n:12 rng in
        let ctx_ms =
          List.map
            (fun q -> snd (Timing.time_ms (fun () -> Core.Contextual_search.search index q)))
            queries
        in
        let lineage_ms =
          List.map
            (fun node ->
              snd (Timing.time_ms (fun () -> Core.Lineage.first_recognizable store node)))
            (take 20 (download_nodes ds))
        in
        let prov_bytes =
          Relstore.Database.total_size (Core.Prov_schema.to_database store)
        in
        [
          fmt_int days;
          fmt_int (Core.Prov_store.node_count store);
          fmt_int (Core.Prov_store.edge_count store);
          Report.fmt_bytes prov_bytes;
          (match ctx_ms with [] -> "-" | _ -> Report.fmt_ms (Stats.percentile 50.0 ctx_ms));
          (match lineage_ms with [] -> "-" | _ -> Report.fmt_ms (Stats.percentile 50.0 lineage_ms));
        ])
      days_list
  in
  {
    Report.id = "E8-scaling-sweep";
    title = "Store size and query latency vs history size";
    paper_claim =
      "\"interesting graph algorithms on browser metadata are feasible for browsers to compute locally\" (S4)";
    header = [ "days"; "nodes"; "edges"; "store size"; "contextual p50"; "lineage p50" ];
    rows;
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* E9: versioning ablation                                              *)
(* ------------------------------------------------------------------ *)

let e9_versioning (ds : Dataset.t) =
  let c = Core.Versioning.compare_strategies (Dataset.store ds) in
  {
    Report.id = "E9-versioning-ablation";
    title = "Visit-instance versioning vs page nodes with time-stamped edges";
    paper_claim =
      "\"Versioning nodes (pages) is a common cycle-breaking technique ... However, time stamping edges (links) can also break cycles\" (S3.1)";
    header = [ "strategy"; "nodes"; "edges"; "acyclic"; "store size" ];
    rows =
      [
        [
          "visit instances (PASS-style)";
          fmt_int c.Core.Versioning.versioned_nodes;
          fmt_int c.Core.Versioning.versioned_edges;
          string_of_bool c.Core.Versioning.versioned_acyclic;
          Report.fmt_bytes c.Core.Versioning.versioned_bytes;
        ];
        [
          "page projection (timestamped edges)";
          fmt_int c.Core.Versioning.projected_nodes;
          fmt_int c.Core.Versioning.projected_edges;
          string_of_bool c.Core.Versioning.projected_acyclic;
          Report.fmt_bytes c.Core.Versioning.projected_bytes;
        ];
      ];
    notes =
      [
        "the projection stays cyclic (the S3.1 problem) but is far smaller; the versioned store buys acyclicity with instance nodes";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E10: redirect / time edge ablation                                   *)
(* ------------------------------------------------------------------ *)

let e10_redirect_ablation ?(max_episodes = 150) (ds : Dataset.t) =
  let episodes = e4_episodes ~max_episodes ds in
  let index = Core.Api.text_index ds.Dataset.api in
  let rank_with config ep =
    let resp = Core.Contextual_search.search ~config ~limit:10 index ep.query in
    Core.Metrics.rank_of ~equal:Int.equal ep.target_node
      (List.map (fun r -> r.Core.Contextual_search.page) resp.Core.Contextual_search.results)
  in
  let base = Core.Contextual_search.default_config in
  let variants =
    [
      ("redirect/embed followed (default)", base);
      ( "redirect/embed excluded",
        { base with Core.Contextual_search.follow_non_user_edges = false } );
      ("time edges added", { base with Core.Contextual_search.follow_time_edges = true });
      ( "time edges only causal off",
        {
          base with
          Core.Contextual_search.follow_non_user_edges = false;
          follow_time_edges = true;
        } );
    ]
  in
  let opaque = List.filter (fun ep -> ep.opaque) episodes in
  {
    Report.id = "E10-redirect-ablation";
    title = "Edge-class choices in contextual expansion";
    paper_claim =
      "\"Redirects and inner content are a special case ... personalization algorithms may wish to exclude or otherwise ignore them\" (S3.2)";
    header = [ "variant"; "episodes"; "MRR"; "hit@1"; "hit@5" ];
    rows =
      List.map
        (fun (name, config) -> e4_row name (List.map (rank_with config) episodes))
        variants
      @ List.map
          (fun (name, config) ->
            e4_row (name ^ " [opaque]") (List.map (rank_with config) opaque))
          variants;
    notes =
      [
        "opaque rows restrict to episodes whose target shares no text with the query (graph signal only)";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E11: capture ablation                                                *)
(* ------------------------------------------------------------------ *)

let connectivity store =
  let g = Core.Prov_store.graph store in
  let displayed = ref 0 and connected = ref 0 in
  Provgraph.Digraph.iter_nodes g (fun id n ->
      if Core.Time_edges.displayed_visit n then begin
        incr displayed;
        let has_causal_in =
          List.exists
            (fun (_, (e : Core.Prov_edge.t)) -> Core.Prov_edge.is_traversal e.Core.Prov_edge.kind)
            (Provgraph.Digraph.in_edges g id)
        in
        if has_causal_in then incr connected
      end);
  if !displayed = 0 then 0.0 else float_of_int !connected /. float_of_int !displayed

(* Connected components of the visits under traversal edges between
   visits, either way round: a union-find over the edges. *)
let visit_components store =
  let g = Core.Prov_store.graph store in
  let is_visit id = Core.Prov_node.is_visit (Provgraph.Digraph.node g id) in
  let parent = Array.init (Provgraph.Digraph.bound g) Fun.id in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      parent.(i) <- parent.(p);
      find parent.(i)
    end
  in
  Provgraph.Digraph.iter_edges g (fun src dst (e : Core.Prov_edge.t) ->
      if Core.Prov_edge.is_traversal e.Core.Prov_edge.kind && is_visit src && is_visit dst then
        parent.(find src) <- find dst);
  Provgraph.Digraph.fold_nodes g ~init:0 ~f:(fun components id n ->
      if Core.Prov_node.is_visit n && find id = id then components + 1 else components)

let e11_capture_ablation ?(max_episodes = 150) (ds : Dataset.t) =
  let full_store = Dataset.store ds in
  let ff_store = Core.Capture.store ds.Dataset.ff_capture in
  let episodes = take max_episodes ds.Dataset.trace.UM.downloads in
  (* What richer capture buys is *reach*: how much of the causal past of
     a download is still connected once Firefox drops the typed/bookmark
     relationships.  For each download, walk its ancestry and check
     whether it still reaches the session's entry page. *)
  let eval_store store =
    let per_download =
      List.filter_map
        (fun (d : UM.download_episode) ->
          match Core.Prov_store.download_node store d.UM.download_id with
          | None -> None
          | Some node ->
            let anc = Core.Lineage.ancestors store node in
            let ancestors = List.map fst anc.Core.Lineage.ancestors in
            let entry_url =
              Webmodel.Url.to_string
                (Web.page ds.Dataset.web d.UM.session_entry_page).Webmodel.Page_content.url
            in
            let reaches_entry =
              match Core.Prov_store.page_of_url store entry_url with
              | None -> false
              | Some entry -> List.mem entry ancestors
            in
            Some (List.length ancestors, reaches_entry))
        episodes
    in
    let counts = List.map (fun (n, _) -> float_of_int n) per_download in
    let reach =
      float_of_int (List.length (List.filter snd per_download))
      /. float_of_int (max 1 (List.length per_download))
    in
    (Stats.mean counts, reach)
  in
  let row name store =
    let mean_ancestors, reach = eval_store store in
    [
      name;
      fmt_int (Core.Prov_store.node_count store);
      fmt_int (Core.Prov_store.edge_count store);
      Report.fmt_pct (connectivity store);
      fmt_int (visit_components store);
      Printf.sprintf "%.0f" mean_ancestors;
      Report.fmt_pct reach;
    ]
  in
  {
    Report.id = "E11-capture-ablation";
    title = "Full provenance capture vs Firefox-fidelity capture";
    paper_claim =
      "\"if a user often takes advantage of advanced navigation features ... she will generate sparsely connected metadata\" (S3.2)";
    header =
      [
        "capture"; "nodes"; "edges"; "visits w/ causal parent"; "components";
        "ancestors/download"; "lineage reaches session entry";
      ];
    rows = [ row "full provenance" full_store; row "firefox-fidelity" ff_store ];
    notes =
      [
        "both captures observed the identical event stream; the Firefox one drops typed/bookmark/search/form/close/time relationships";
        "download ancestry that cannot cross a typed navigation is exactly the forensics gap of S2.4";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E12: ranking-algorithm ablation                                      *)
(* ------------------------------------------------------------------ *)

let e12_algorithm_ablation ?(max_episodes = 120) (ds : Dataset.t) =
  let episodes = e4_episodes ~max_episodes ds in
  let index = Core.Api.text_index ds.Dataset.api in
  let normalized =
    { Core.Contextual_search.default_config with Core.Contextual_search.degree_normalize = true }
  in
  let systems =
    [
      ("decayed expansion (Shah-style)",
        fun q -> Core.Contextual_search.search ~limit:10 index q);
      ("decayed expansion, degree-normalized",
        fun q -> Core.Contextual_search.search ~config:normalized ~limit:10 index q);
      ("personalized PageRank",
        fun q -> Core.Contextual_search.search_pagerank ~limit:10 index q);
      ("HITS on focused subgraph",
        fun q -> Core.Contextual_search.search_hits ~limit:10 index q);
    ]
  in
  let rows =
    List.concat_map
      (fun (name, run) ->
        let latencies = ref [] in
        let rank ep =
          let resp, ms = Timing.time_ms (fun () -> run ep.query) in
          latencies := ms :: !latencies;
          Core.Metrics.rank_of ~equal:Int.equal ep.target_node
            (List.map
               (fun (r : Core.Contextual_search.result) -> r.Core.Contextual_search.page)
               resp.Core.Contextual_search.results)
        in
        let all = List.map rank episodes in
        let opaque =
          List.filter_map
            (fun ep -> if ep.opaque then Some (rank ep) else None)
            episodes
        in
        let mrr, h1, h5 = quality_metrics all in
        let omrr, _, oh5 = quality_metrics opaque in
        [
          [
            name;
            fmt_int (List.length all);
            Report.fmt_f mrr;
            Report.fmt_pct h1;
            Report.fmt_pct h5;
            Report.fmt_f omrr;
            Report.fmt_pct oh5;
            (match !latencies with [] -> "-" | l -> Report.fmt_ms (Stats.percentile 50.0 l));
          ];
        ])
      systems
  in
  {
    Report.id = "E12-algorithm-ablation";
    title = "Graph-ranking algorithms for contextual history search";
    paper_claim =
      "\"our purpose at this time is not to find the best algorithms for browser provenance, but rather to show such algorithms are feasible\"; \"We must now develop more intelligent algorithms\" (S4)";
    header =
      [ "algorithm"; "episodes"; "MRR"; "hit@1"; "hit@5"; "MRR(opaque)"; "hit@5(opaque)"; "p50" ];
    rows;
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* E13: the tree structure of versioned history (S3.1)                  *)
(* ------------------------------------------------------------------ *)

let e13_history_tree (ds : Dataset.t) =
  let store = Dataset.store ds in
  let tree, build_ms = Timing.time_ms (fun () -> Core.History_tree.build store) in
  let c = Core.History_tree.storage_comparison store tree in
  let depths =
    List.map
      (fun root ->
        List.fold_left
          (fun acc v -> max acc (Core.History_tree.depth tree v))
          0
          (Core.History_tree.subtree tree root))
      (Core.History_tree.roots tree)
  in
  let max_depth = List.fold_left max 0 depths in
  {
    Report.id = "E13-history-tree";
    title = "Versioned navigation history forms a forest (S3.1)";
    paper_claim =
      "\"if both pages and links are versioned as new instances, and only link relationships are considered, the result is a tree structure ... we believe it could also be used for efficient storage\" (S3.1)";
    header = [ "metric"; "value" ];
    rows =
      [
        [ "displayed visits"; fmt_int c.Core.History_tree.visits ];
        [ "is a forest"; string_of_bool (Core.History_tree.is_forest tree) ];
        [ "sessions (roots)"; fmt_int (List.length (Core.History_tree.roots tree)) ];
        [ "max navigation depth"; fmt_int max_depth ];
        [ "parent-pointer encoding"; Report.fmt_bytes c.Core.History_tree.parent_pointer_bytes ];
        [ "edge-table encoding"; Report.fmt_bytes c.Core.History_tree.edge_table_bytes ];
        [
          "tree encoding saves";
          Report.fmt_pct
            (1.0
            -. (float_of_int c.Core.History_tree.parent_pointer_bytes
               /. float_of_int (max 1 c.Core.History_tree.edge_table_bytes)));
        ];
        [ "build time"; Report.fmt_ms build_ms ];
      ];
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* E14: incremental persistence                                         *)
(* ------------------------------------------------------------------ *)

let e14_incremental_persistence (ds : Dataset.t) =
  (* Re-run the dataset's recorded event stream through a fresh capture
     whose store mirrors every mutation into an append-only journal —
     the write path a real browser would use. *)
  let capture, feed = Core.Capture.observer () in
  let journal = Core.Prov_log.create () in
  Core.Prov_store.set_observer (Core.Capture.store capture) (Core.Prov_log.append journal);
  let events = Browser.Engine.event_log ds.Dataset.engine in
  let (), log_ms = Timing.time_ms (fun () -> List.iter feed events) in
  let store = Core.Capture.store capture in
  let snapshot, snapshot_ms =
    Timing.time_ms (fun () -> Relstore.Database.to_bytes (Core.Prov_schema.to_database store))
  in
  let replayed, replay_ms = Timing.time_ms (fun () -> Core.Prov_log.replay journal) in
  (* Crash tolerance: drop the journal's final bytes mid-record. *)
  let bytes = Core.Prov_log.to_bytes journal in
  let truncated_journal =
    Core.Prov_log.of_bytes (String.sub bytes 0 (String.length bytes - 3))
  in
  let recovered = Core.Prov_log.replay truncated_journal in
  let ops = Core.Prov_log.length journal in
  {
    Report.id = "E14-incremental-persistence";
    title = "Append-only provenance journal vs full snapshot rewrite";
    paper_claim =
      "\"We have implemented a model browser provenance schema ... as a SQLite relational database\" (S4) - i.e. a store with cheap incremental writes";
    header = [ "metric"; "value" ];
    rows =
      [
        [ "browser events"; fmt_int (List.length events) ];
        [ "journal operations"; fmt_int ops ];
        [ "journal size"; Report.fmt_bytes (Core.Prov_log.byte_size journal) ];
        [
          "bytes per operation";
          Printf.sprintf "%.1f" (float_of_int (Core.Prov_log.byte_size journal) /. float_of_int (max 1 ops));
        ];
        [ "journal write time (all events)"; Report.fmt_ms log_ms ];
        [ "one full snapshot rewrite"; Report.fmt_ms snapshot_ms ];
        [ "snapshot size"; Report.fmt_bytes (String.length snapshot) ];
        [ "journal replay time"; Report.fmt_ms replay_ms ];
        [
          "replay reproduces store";
          string_of_bool
            (Core.Prov_store.node_count replayed = Core.Prov_store.node_count store
            && Core.Prov_store.edge_count replayed = Core.Prov_store.edge_count store);
        ];
        [
          "crash-truncated replay loses";
          Printf.sprintf "%d of %d operations (%d nodes, %d edges)"
            (ops - Core.Prov_log.length truncated_journal)
            ops
            (Core.Prov_store.node_count store - Core.Prov_store.node_count recovered)
            (Core.Prov_store.edge_count store - Core.Prov_store.edge_count recovered);
        ];
      ];
    notes =
      [
        "snapshotting after every event would cost (events x snapshot time); the journal costs microseconds per event";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E16: durability under crashes and corruption                         *)
(* ------------------------------------------------------------------ *)

(* E14 shows the journal is cheap; this experiment shows it is *safe*:
   what does v2 framing cost over v1, and what does recovery salvage
   when the file is cut at an arbitrary byte or a byte is flipped? *)

let is_op_prefix prefix full =
  let rec go p f =
    match (p, f) with
    | [], _ -> true
    | _, [] -> false
    | x :: p', y :: f' -> x = y && go p' f'
  in
  go prefix full

let e16_crash_recovery ?(crash_points = 400) ?(flip_points = 400) (ds : Dataset.t) =
  let capture, feed = Core.Capture.observer () in
  let journal = Core.Prov_log.create () in
  Core.Prov_store.set_observer (Core.Capture.store capture) (Core.Prov_log.append journal);
  let events = Browser.Engine.event_log ds.Dataset.engine in
  List.iter feed events;
  let full_ops = Core.Prov_log.ops journal in
  let n_ops = List.length full_ops in
  let v2 = Core.Prov_log.to_bytes journal in
  let v1 = Core.Prov_log.to_bytes_v1 journal in
  let v2_len = String.length v2 and v1_len = String.length v1 in
  let overhead = (float_of_int v2_len /. float_of_int (max 1 v1_len)) -. 1.0 in
  let rng = Prng.create (ds.Dataset.seed + 16) in
  (* Crash sweep: cut the image at an arbitrary byte; the recovered op
     sequence must be a prefix of what was logged. *)
  let crash_consistent = ref 0 and ops_lost = ref [] in
  let crash_ms =
    List.map
      (fun cut ->
        let img = String.sub v2 0 cut in
        let recovered, ms =
          (* Catch-all is deliberate: a truncated v1 image can surface as
             Corrupt, Invalid_argument or Failure depending on where the
             cut landed, and this probe only asks "did it load". *)
          Timing.time_ms (fun () ->
              (try Some (Core.Prov_log.of_bytes img) with _ -> None)
              [@provlint.allow "banned-constructs"])
        in
        (match recovered with
        | Some r ->
          let rops = Core.Prov_log.ops r in
          if is_op_prefix rops full_ops then incr crash_consistent;
          ops_lost := float_of_int (n_ops - List.length rops) :: !ops_lost
        | None -> ());
        ms)
      (List.init crash_points (fun _ -> Prng.int rng (String.length v2 + 1)))
  in
  (* Flip sweep: complement one byte inside the framed region; v2 must
     either raise Corrupt or recover a strict prefix (detection = the
     damage never goes unnoticed). *)
  let flips_detected = ref 0 in
  List.iter
    (fun k ->
      let img = String.mapi (fun i c -> if i = k then Char.chr (Char.code c lxor 0xFF) else c) v2 in
      match Core.Prov_log.of_bytes img with
      | recovered ->
        let rops = Core.Prov_log.ops recovered in
        if List.length rops < n_ops && is_op_prefix rops full_ops then incr flips_detected
      | exception Relstore.Errors.Corrupt _ -> incr flips_detected)
    (List.init flip_points (fun _ -> Prng.int rng (String.length v2)));
  let lost = !ops_lost in
  {
    Report.id = "E16-crash-recovery";
    title = "Checksummed framing (v2): overhead, crash sweep, corruption detection";
    paper_claim =
      "\"We have implemented a model browser provenance schema ... as a SQLite relational database\" (S4) - durability of the incremental path is assumed; here it is tested";
    header = [ "metric"; "value" ];
    rows =
      [
        [ "journal operations"; fmt_int n_ops ];
        [ "v1 (unframed) size"; Report.fmt_bytes v1_len ];
        [ "v2 (framed) size"; Report.fmt_bytes v2_len ];
        [
          "bytes per op (v1 -> v2)";
          Printf.sprintf "%.1f -> %.1f"
            (float_of_int v1_len /. float_of_int (max 1 n_ops))
            (float_of_int v2_len /. float_of_int (max 1 n_ops));
        ];
        [ "v2 framing overhead"; Report.fmt_pct overhead ];
        [ "crash points tried"; fmt_int crash_points ];
        [
          "recovered prefix consistent";
          Report.fmt_pct (float_of_int !crash_consistent /. float_of_int (max 1 crash_points));
        ];
        [
          "ops lost at a random crash";
          (match lost with
          | [] -> "-"
          | _ ->
            let s = Stats.summarize lost in
            Printf.sprintf "mean %.1f / p90 %.0f / max %.0f of %d" s.Stats.mean s.Stats.p90
              s.Stats.max n_ops);
        ];
        [
          "recovery time (full image prefix)";
          (match crash_ms with [] -> "-" | _ -> Report.fmt_ms (Stats.percentile 50.0 crash_ms));
        ];
        [ "single-byte flips tried"; fmt_int flip_points ];
        [
          "flips detected";
          Report.fmt_pct (float_of_int !flips_detected /. float_of_int (max 1 flip_points));
        ];
      ];
    notes =
      [
        "detection = decoding raises Corrupt or stops cleanly at the last verified frame (never a garbled suffix applied)";
        "v1 can only detect a truncated tail; a mid-file flip silently corrupts every later record";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E15: heterogeneous joins vs the homogeneous graph (S3.3)             *)
(* ------------------------------------------------------------------ *)

(* Graph-side counterpart of Places_queries.bookmarks_reached_from_search:
   one lineage walk per bookmark node. *)
let graph_bookmarks_from_search store =
  let bookmarks =
    Core.Prov_store.nodes_of_kind store (fun n ->
        match n.Core.Prov_node.kind with Core.Prov_node.Bookmark _ -> true | _ -> false)
  in
  List.filter_map
    (fun b ->
      let anc = Core.Lineage.ancestors store b in
      List.find_map
        (fun (node, _) ->
          match (Core.Prov_store.node store node).Core.Prov_node.kind with
          | Core.Prov_node.Search_term { query } -> Some query
          | _ -> None)
        anc.Core.Lineage.ancestors)
    bookmarks

(* Graph-side counterpart of downloads_with_referrers: the referrer is
   one in-edge away (Download_source -> source visit -> its page). *)
let graph_downloads_with_referrer store =
  let downloads = Core.Prov_store.nodes_of_kind store Core.Prov_node.is_download in
  List.filter_map
    (fun d ->
      List.find_map
        (fun (src, (e : Core.Prov_edge.t)) ->
          let page = Core.Prov_store.page_of_visit store src in
          if e.Core.Prov_edge.kind = Core.Prov_edge.Download_source && page >= 0 then Some page
          else None)
        (Provgraph.Digraph.in_edges (Core.Prov_store.graph store) d))
    downloads

let graph_downloads_with_origin store =
  let downloads = Core.Prov_store.nodes_of_kind store Core.Prov_node.is_download in
  List.filter (fun d -> Core.Lineage.first_recognizable store d <> None) downloads

let e15_heterogeneous_joins (ds : Dataset.t) =
  let places = Dataset.places ds in
  let store = Dataset.store ds in
  let places_bookmarks, p_bm_ms =
    Timing.time_ms (fun () -> Browser.Places_queries.bookmarks_reached_from_search places)
  in
  let graph_bookmarks, g_bm_ms = Timing.time_ms (fun () -> graph_bookmarks_from_search store) in
  let places_found =
    List.length
      (List.filter
         (fun (b : Browser.Places_queries.bookmark_origin) ->
           b.Browser.Places_queries.reached_from_search <> None)
         places_bookmarks)
  in
  let places_downloads, p_dl_ms =
    Timing.time_ms (fun () -> Browser.Places_queries.downloads_with_referrers places)
  in
  let graph_referrers, g_ref_ms =
    Timing.time_ms (fun () -> graph_downloads_with_referrer store)
  in
  let graph_downloads, g_dl_ms = Timing.time_ms (fun () -> graph_downloads_with_origin store) in
  let places_dl_found =
    List.length
      (List.filter
         (fun (d : Browser.Places_queries.download_origin) ->
           d.Browser.Places_queries.referrer_url <> None)
         places_downloads)
  in
  let dead_places = Browser.Places_queries.dead_end_rate places in
  let dead_graph = 1.0 -. connectivity store in
  {
    Report.id = "E15-heterogeneous-joins";
    title = "Heterogeneous table joins (Places) vs one homogeneous graph";
    paper_claim =
      "\"querying a bookmark relationship may require the user to join heterogeneous tables or even databases\" (S3.3); the vision is \"a single, homogeneous provenance graph store\" (S3.4)";
    header = [ "question"; "system"; "answered"; "of"; "latency" ];
    rows =
      [
        [
          "bookmark found via which search?"; "places (5-table join)";
          fmt_int places_found; fmt_int (List.length places_bookmarks); Report.fmt_ms p_bm_ms;
        ];
        [
          "bookmark found via which search?"; "provenance graph";
          fmt_int (List.length graph_bookmarks); fmt_int (List.length places_bookmarks);
          Report.fmt_ms g_bm_ms;
        ];
        [
          "download's referrer page?"; "places (3-table join)";
          fmt_int places_dl_found; fmt_int (List.length places_downloads); Report.fmt_ms p_dl_ms;
        ];
        [
          "download's referrer page?"; "provenance graph";
          fmt_int (List.length graph_referrers); fmt_int (List.length places_downloads);
          Report.fmt_ms g_ref_ms;
        ];
        [
          "download's recognizable origin?"; "provenance graph (lineage walk)";
          fmt_int (List.length graph_downloads); fmt_int (List.length places_downloads);
          Report.fmt_ms g_dl_ms;
        ];
        [
          "dead-end visits (no causal parent)"; "places";
          Report.fmt_pct dead_places; ""; "";
        ];
        [
          "dead-end visits (no causal parent)"; "provenance graph";
          Report.fmt_pct dead_graph; ""; "";
        ];
      ];
    notes =
      [
        "the Places joins also answer *less*: they dead-end wherever Firefox dropped the relationship (typed and bookmark navigations)";
        "the recognizable-origin question has no Places formulation at all - it is the recursive forensics S2.4 says users are forced into";
      ];
  }

(* ------------------------------------------------------------------ *)

let run_all ?(quick = false) ~seed () =
  let ds = if quick then Dataset.with_days ~seed 12 else Dataset.default ~seed () in
  let samples = if quick then 20 else 120 in
  let max_episodes = if quick then 40 else 250 in
  let days_list = if quick then [ 4; 8 ] else [ 10; 20; 40; 79 ] in
  [
    e1_history_scale ds;
    e2_storage_overhead ds;
    e3_query_latency ~samples ds;
    e4_contextual_quality ~max_episodes ds;
    e5_personalization ~max_episodes:(max_episodes / 2) ds;
    e6_time_context ds;
    e7_download_lineage ~max_episodes ds;
    e8_scaling ~days_list ~seed ();
    e9_versioning ds;
    e10_redirect_ablation ~max_episodes:(max_episodes / 2) ds;
    e11_capture_ablation ~max_episodes:(max_episodes / 2) ds;
    e12_algorithm_ablation ~max_episodes:(max_episodes / 2) ds;
    e13_history_tree ds;
    e14_incremental_persistence ds;
    e15_heterogeneous_joins ds;
    e16_crash_recovery ~crash_points:(if quick then 60 else 400)
      ~flip_points:(if quick then 60 else 400) ds;
  ]
