(* The four use-case queries (S2.1-S2.4), metrics, and the Api facade. *)

module F = Core_fixtures
module Web = Webmodel.Web_graph
module Page = Webmodel.Page_content
module Engine = Browser.Engine
module Store = Core.Prov_store
module CS = Core.Contextual_search
module TS = Core.Time_search
module L = Core.Lineage
module M = Core.Metrics

let page_url web pid = Webmodel.Url.to_string (Web.page web pid).Page.url

(* A scripted rosebud episode: search an ambiguous term, click a planted
   result, walk one link further.  Returns the api plus the two pages. *)
let rosebud_session () =
  let web, engine, api = F.make ~seed:2009 () in
  let ambiguity = List.hd (Web.ambiguities web) in
  let tab = Engine.open_tab engine ~time:100 () in
  let _serp, results = Engine.search engine ~time:110 ~tab ambiguity.Web.term in
  let clicked =
    match
      List.find_opt
        (fun (r : Webmodel.Search_engine.result) ->
          List.mem r.Webmodel.Search_engine.page ambiguity.Web.pages_a)
        results
    with
    | Some r -> r.Webmodel.Search_engine.page
    | None -> failwith "planted page not in results"
  in
  let _cv = Engine.click_result engine ~time:120 ~tab clicked in
  let onward =
    Array.to_list (Web.page web clicked).Page.links
    |> List.find (fun l -> (Web.page web l).Page.kind <> Page.Redirect)
  in
  let _ov = Engine.visit_link engine ~time:130 ~tab onward in
  Engine.close_tab engine ~time:140 tab;
  (web, engine, api, ambiguity, clicked, onward)

(* --- contextual history search (S2.1) --- *)

let test_contextual_finds_descendant () =
  let web, _engine, api, ambiguity, clicked, onward = rosebud_session () in
  let response = Core.Api.contextual_history_search api ambiguity.Web.term in
  let pages =
    List.map (fun (r : CS.result) -> Core.Api.page_url api r.CS.page) response.CS.results
  in
  Alcotest.(check bool) "clicked page returned" true (List.mem (page_url web clicked) pages);
  Alcotest.(check bool) "onward page returned (pure provenance)" true
    (List.mem (page_url web onward) pages);
  Alcotest.(check bool) "not truncated" false response.CS.truncated

let test_textual_baseline_misses_descendant () =
  let web, _engine, api, ambiguity, _clicked, onward = rosebud_session () in
  let results = CS.textual_only ~limit:10 (Core.Api.text_index api) ambiguity.Web.term in
  let pages = List.map (fun (r : CS.result) -> Core.Api.page_url api r.CS.page) results in
  Alcotest.(check bool) "text-only misses the onward page" false
    (List.mem (page_url web onward) pages)

let test_contextual_scores_decompose () =
  let _web, _engine, api, ambiguity, _clicked, _onward = rosebud_session () in
  let response = Core.Api.contextual_history_search api ambiguity.Web.term in
  List.iter
    (fun (r : CS.result) ->
      Alcotest.(check (float 1e-9)) "score = text + graph"
        (r.CS.text_score +. r.CS.graph_score)
        r.CS.score)
    response.CS.results

let test_contextual_budget_truncates () =
  let _web, _engine, api, ambiguity, _clicked, _onward = rosebud_session () in
  let response =
    CS.search
      ~budget:{ Core.Query_budget.deadline_ms = None; node_budget = Some 1 }
      (Core.Api.text_index api) ambiguity.Web.term
  in
  Alcotest.(check bool) "tiny budget truncates" true response.CS.truncated

let test_contextual_empty_query () =
  let _web, _engine, api, _ambiguity, _clicked, _onward = rosebud_session () in
  let response = Core.Api.contextual_history_search api "zzz unknown terms" in
  Alcotest.(check (list unit)) "no results for unknown terms" []
    (List.map (fun _ -> ()) response.CS.results)

(* --- personalization (S2.2) --- *)

let test_personalize_picks_topical_terms () =
  let web, engine, api = F.make ~seed:4 () in
  let ambiguity = List.hd (Web.ambiguities web) in
  (* Browse sense-B pages heavily, then expand the ambiguous query. *)
  let tab = Engine.open_tab engine ~time:100 () in
  let clock = ref 100 in
  List.iter
    (fun p ->
      clock := !clock + 20;
      ignore (Engine.visit_typed engine ~time:!clock ~tab p))
    (ambiguity.Web.pages_b @ ambiguity.Web.pages_b);
  Engine.close_tab engine ~time:(!clock + 20) tab;
  let expansion = Core.Api.personalize_web_search api ambiguity.Web.term in
  Alcotest.(check bool) "terms added" true (expansion.Core.Personalize.added_terms <> []);
  Alcotest.(check bool) "expanded differs" true
    (expansion.Core.Personalize.expanded <> expansion.Core.Personalize.original);
  Alcotest.(check bool) "original preserved as prefix" true
    (Provkit_util.Strutil.is_prefix ~prefix:ambiguity.Web.term
       expansion.Core.Personalize.expanded);
  (* The added terms must not repeat the query itself. *)
  List.iter
    (fun (term, _) ->
      Alcotest.(check bool) "no echo of the query" false (term = ambiguity.Web.term))
    expansion.Core.Personalize.added_terms

let test_personalize_empty_history () =
  let _web, _engine, api = F.make () in
  let expansion = Core.Api.personalize_web_search api "rosebud" in
  Alcotest.(check string) "no context, no expansion" "rosebud"
    expansion.Core.Personalize.expanded

(* A page retitled after the index was built must lend personalization
   the terms of its current title, not the ones the index holds. *)
let test_personalize_reads_current_title () =
  let store = Store.create () in
  let url = "http://garden.example/roses" in
  ignore (Store.add_page store ~url ~title:"rosebud garden tips" ~time:1);
  ignore (Store.add_page store ~url:"http://news.example/daily" ~title:"daily news" ~time:2);
  ignore (Store.add_page store ~url:"http://film.example/kane" ~title:"citizen kane" ~time:3);
  let index = Core.Prov_text_index.build store in
  let page = Option.get (Store.page_of_url store url) in
  let stale = Store.node store page in
  ignore (Store.add_page store ~url ~title:"rosebud orchid care" ~time:4);
  let current = Store.node store page in
  Alcotest.(check bool) "the store replaced the record" false (stale == current);
  let expansion = Core.Personalize.expand index "rosebud" in
  let added = List.map fst expansion.Core.Personalize.added_terms in
  let terms n = Core.Prov_node.text_terms n in
  Alcotest.(check bool) "terms added" true (added <> []);
  List.iter
    (fun term ->
      Alcotest.(check bool) (term ^ " is in the current title or url") true
        (List.mem term (terms current)))
    added;
  Alcotest.(check bool) "a term only the new title has" true
    (List.exists (fun term -> not (List.mem term (terms stale))) added)

(* --- time-contextual search (S2.3) --- *)

let test_time_search_co_open_beats_far () =
  let web, engine, api = F.make ~seed:6 () in
  (* Two wine articles: one co-open with a "tickets" search, one visited
     a day later. *)
  let wine_pages =
    List.filter (fun p -> (Web.page web p).Page.kind = Page.Article) (Web.pages_of_topic web 0)
  in
  let near, far =
    match wine_pages with a :: b :: _ -> (a, b) | _ -> failwith "need 2 articles"
  in
  let tab_a = Engine.open_tab engine ~time:1000 () in
  let _ = Engine.visit_typed engine ~time:1010 ~tab:tab_a near in
  let tab_b = Engine.open_tab engine ~time:1020 () in
  let _ = Engine.search engine ~time:1030 ~tab:tab_b "plane tickets" in
  Engine.close_tab engine ~time:1100 tab_a;
  Engine.close_tab engine ~time:1100 tab_b;
  let tab = Engine.open_tab engine ~time:90_000 () in
  let _ = Engine.visit_typed engine ~time:90_010 ~tab far in
  Engine.close_tab engine ~time:90_100 tab;
  let topic_name = Webmodel.Topic.name (Web.topic web 0) in
  let response =
    Core.Api.time_contextual_search api ~query:topic_name ~context:"plane tickets"
  in
  let rank p =
    M.rank_of ~equal:String.equal (page_url web p)
      (List.map (fun (r : TS.result) -> Core.Api.page_url api r.TS.page) response.TS.results)
  in
  (match (rank near, rank far) with
  | Some rn, Some rf ->
    Alcotest.(check bool) "co-open page outranks distant page" true (rn < rf)
  | Some _, None -> ()  (* distant page filtered out entirely: fine *)
  | None, _ -> Alcotest.fail "co-open page missing from results");
  match response.TS.results with
  | top :: _ ->
    Alcotest.(check (option int)) "top result gap 0" (Some 0) top.TS.best_gap
  | [] -> Alcotest.fail "no results"

(* --- the read path's scratches --- *)

let render_cs (r : CS.response) =
  String.concat ";"
    (string_of_bool r.CS.truncated
    :: List.map
         (fun (x : CS.result) ->
           Printf.sprintf "%d %h %h %h" x.CS.page x.CS.score x.CS.text_score x.CS.graph_score)
         r.CS.results)

let render_ts (r : TS.response) =
  String.concat ";"
    (string_of_bool r.TS.truncated
    :: List.map (fun (x : TS.result) -> Printf.sprintf "%d %h" x.TS.page x.TS.score) r.TS.results)

(* An expansion's reached nodes in reach order, each with its score's
   bits. *)
let reached (e : Provgraph.Neighborhood.expansion) =
  let r = e.Provgraph.Neighborhood.reached in
  List.init r.Provkit_util.Scratch.count (fun i ->
      let id = r.Provkit_util.Scratch.ids.(i) in
      (id, Int64.bits_of_float e.Provgraph.Neighborhood.scores.(id)))

(* A contextual search started from inside an expansion's continuation
   runs on scratches of its own: it answers as a search on its own
   does, and the expansion around it is undisturbed. *)
let test_search_inside_expansion () =
  let _web, _engine, api, trace = F.simulated ~days:2 () in
  let index = Core.Api.text_index api in
  let graph = Store.graph (Core.Api.store api) in
  let q = (List.hd trace.Browser.User_model.searches).Browser.User_model.query in
  let alone = render_cs (CS.search index q) in
  let seeds = List.filteri (fun i _ -> i < 3) (Core.Prov_text_index.search index q) in
  let plain = Provgraph.Neighborhood.expand graph ~seeds reached in
  let outer =
    Provgraph.Neighborhood.expand graph ~seeds (fun e ->
        Alcotest.(check string) "search inside the continuation" alone (render_cs (CS.search index q));
        reached e)
  in
  Alcotest.(check bool) "the expansion reached nodes" true (plain <> []);
  Alcotest.(check (list (pair int int64))) "outer expansion" plain outer

(* A domain's scratches are sized to the largest graph it has queried.
   Queries after the store grows past that answer as on a fresh
   domain. *)
let test_search_after_growth () =
  let web, engine, api = F.make ~seed:13 () in
  let tab = Engine.open_tab engine ~time:10 () in
  let clock = ref 10 in
  let browse topic =
    List.iter
      (fun p ->
        if Page.is_navigable (Web.page web p) then begin
          clock := !clock + 30;
          ignore (Engine.visit_typed engine ~time:!clock ~tab p)
        end)
      (Web.pages_of_topic web topic)
  in
  browse 0;
  Core.Api.refresh api;
  let queries =
    List.concat_map
      (fun topic ->
        List.filteri (fun i _ -> i < 3)
          (List.map (fun p -> (Web.page web p).Page.title) (Web.pages_of_topic web topic)))
      [ 0; 1; 2; 3 ]
  in
  let answers () =
    let index = Core.Api.text_index api and ti = Core.Api.time_index api in
    List.concat_map
      (fun q ->
        [
          render_cs (CS.search index q);
          render_cs (CS.search_pagerank index q);
          render_ts (TS.search index ti ~query:q ~context:(List.hd queries));
        ])
      queries
  in
  let on_fresh_domain f = Domain.join (Domain.spawn f) in
  let bound () = Provgraph.Digraph.bound (Store.graph (Core.Api.store api)) in
  let small = bound () in
  let grown =
    on_fresh_domain (fun () ->
        ignore (answers ());
        List.iter browse [ 1; 2; 3 ];
        Core.Api.refresh api;
        answers ())
  in
  Alcotest.(check bool) "the graph grew" true (bound () > small);
  Alcotest.(check bool) "an answer reaches past the old bound" true
    (List.exists
       (fun q ->
         List.exists
           (fun (r : CS.result) -> r.CS.page >= small)
           (CS.search (Core.Api.text_index api) q).CS.results)
       queries);
  Alcotest.(check (list string)) "answers as on a fresh domain" (on_fresh_domain answers) grown

(* --- download lineage (S2.4) --- *)

let scripted_download () =
  let web, engine, api = F.make ~seed:8 () in
  let host = F.first_of_kind web Page.Download_host in
  let tab = Engine.open_tab engine ~time:10 () in
  (* Build a chain: hub (visited repeatedly, recognizable) -> article ->
     host -> download. *)
  let hub = F.hub web in
  let _ = Engine.visit_typed engine ~time:20 ~tab hub in
  let _ = Engine.visit_typed engine ~time:25 ~tab hub in
  let _ = Engine.visit_typed engine ~time:30 ~tab hub in
  let _ = Engine.visit_link engine ~time:40 ~tab (F.article web) in
  let _ = Engine.visit_link engine ~time:50 ~tab host in
  let file = F.file_of_host web host in
  let download_id, _ = Engine.download engine ~time:60 ~tab ~file_page:file in
  Engine.close_tab engine ~time:70 tab;
  (web, engine, api, host, hub, download_id)

let test_lineage_ancestors () =
  let web, _engine, api, host, hub, download_id = scripted_download () in
  let store = Core.Api.store api in
  let dnode = Option.get (Store.download_node store download_id) in
  let anc = L.ancestors store dnode in
  Alcotest.(check bool) "not truncated" false anc.L.truncated;
  let pages =
    List.filter_map
      (fun (n, _) ->
        match (Store.node store n).Core.Prov_node.kind with
        | Core.Prov_node.Page { url; _ } -> Some url
        | _ -> None)
      anc.L.ancestors
  in
  Alcotest.(check bool) "host page among ancestors" true (List.mem (page_url web host) pages);
  Alcotest.(check bool) "session hub among ancestors" true (List.mem (page_url web hub) pages);
  (* Distances are breadth-first: sorted ascending in visit order. *)
  let distances = List.map snd anc.L.ancestors in
  Alcotest.(check bool) "distances non-decreasing" true
    (List.sort compare distances = distances)

let test_first_recognizable () =
  let web, _engine, api, host, hub, download_id = scripted_download () in
  let store = Core.Api.store api in
  let dnode = Option.get (Store.download_node store download_id) in
  match L.first_recognizable store dnode with
  | None -> Alcotest.fail "no origin"
  | Some origin ->
    let url =
      match (Store.node store origin.L.node).Core.Prov_node.kind with
      | Core.Prov_node.Page { url; _ } -> url
      | _ -> "?"
    in
    (* The host page was visited once; the hub three times (and typed).
       The nearest recognizable ancestor must be a page the recognizer
       accepts; with the default thresholds that is the hub, unless the
       host was typed-navigated (it was not: it was reached by link). *)
    Alcotest.(check string) "origin is the typed hub" (page_url web hub) url;
    ignore host;
    (* The path starts at the download and ends at the origin. *)
    (match (origin.L.path, List.rev origin.L.path) with
    | first :: _, last :: _ ->
      Alcotest.(check int) "path starts at download" dnode first;
      Alcotest.(check int) "path ends at origin" origin.L.node last
    | _ -> Alcotest.fail "degenerate path");
    Alcotest.(check int) "distance = path length - 1" (List.length origin.L.path - 1)
      origin.L.distance;
    (* describe_path renders one line per node *)
    Alcotest.(check int) "description lines" (List.length origin.L.path)
      (List.length (L.describe_path store origin.L.path))

let test_downloads_descending () =
  let web, _engine, api, host, _hub, download_id = scripted_download () in
  let store = Core.Api.store api in
  let dnode = Option.get (Store.download_node store download_id) in
  let result = Core.Api.downloads_from_page api ~url:(page_url web host) in
  Alcotest.(check (list int)) "the download descends from its host" [ dnode ]
    result.L.downloads;
  (* An unrelated page yields nothing. *)
  let unrelated = Core.Api.downloads_from_page api ~url:"http://nowhere.example/x" in
  Alcotest.(check (list int)) "unknown url empty" [] unrelated.L.downloads

let test_lineage_never_follows_time_edges () =
  (* Two unrelated sessions co-open in time: time edges must not leak
     into lineage. *)
  let web, engine, api = F.make ~seed:12 () in
  let store = Core.Api.store api in
  let host = F.first_of_kind web Page.Download_host in
  let tab_a = Engine.open_tab engine ~time:10 () in
  let unrelated = F.hub web in
  let _ = Engine.visit_typed engine ~time:20 ~tab:tab_a unrelated in
  let tab_b = Engine.open_tab engine ~time:30 () in
  let _ = Engine.visit_typed engine ~time:40 ~tab:tab_b host in
  let file = F.file_of_host web host in
  let download_id, _ = Engine.download engine ~time:50 ~tab:tab_b ~file_page:file in
  let dnode = Option.get (Store.download_node store download_id) in
  let anc = L.ancestors store dnode in
  let ancestor_pages =
    List.filter_map
      (fun (n, _) ->
        match (Store.node store n).Core.Prov_node.kind with
        | Core.Prov_node.Page { url; _ } -> Some url
        | _ -> None)
      anc.L.ancestors
  in
  Alcotest.(check bool) "co-open page not in lineage" false
    (List.mem (page_url web unrelated) ancestor_pages)

(* --- metrics --- *)

let test_metrics () =
  Alcotest.(check (option int)) "rank found" (Some 2)
    (M.rank_of ~equal:Int.equal 5 [ 9; 5; 1 ]);
  Alcotest.(check (option int)) "rank missing" None (M.rank_of ~equal:Int.equal 7 [ 9; 5 ]);
  Alcotest.(check (float 1e-9)) "rr" 0.5 (M.reciprocal_rank (Some 2));
  Alcotest.(check (float 1e-9)) "rr miss" 0.0 (M.reciprocal_rank None);
  Alcotest.(check (float 1e-9)) "mrr" 0.75 (M.mrr [ Some 1; Some 2 ]);
  Alcotest.(check (float 1e-9)) "mrr empty" 0.0 (M.mrr []);
  Alcotest.(check (float 1e-9)) "hit@1" 0.5 (M.hit_at 1 [ Some 1; Some 3 ]);
  Alcotest.(check (float 1e-9)) "hit@3" 1.0 (M.hit_at 3 [ Some 1; Some 3 ])

(* --- api housekeeping --- *)

let test_api_index_refresh () =
  let web, engine, api = F.make ~seed:13 () in
  let tab = Engine.open_tab engine ~time:10 () in
  let a = F.article web in
  let _ = Engine.visit_typed engine ~time:20 ~tab a in
  let found index title = Core.Prov_text_index.search index title <> [] in
  Alcotest.(check bool) "indexed something" true
    (found (Core.Api.text_index api) (Web.page web a).Page.title);
  (* Browsing a lot more forces a lazy rebuild on next access. *)
  let later =
    List.filter (fun p -> Page.is_navigable (Web.page web p)) (Web.pages_of_topic web 1)
  in
  List.iter (fun p -> ignore (Engine.visit_typed engine ~time:(100 + p) ~tab p)) later;
  Core.Api.refresh api;
  Alcotest.(check bool) "index grew" true
    (List.for_all (fun p -> found (Core.Api.text_index api) (Web.page web p).Page.title) later)

let test_api_persist () =
  let _web, _engine, api, _ambiguity, _clicked, _onward = rosebud_session () in
  let db = Core.Api.persist api in
  Alcotest.(check bool) "non-empty image" true (Relstore.Database.total_size db > 0);
  let store' = Core.Prov_schema.of_database db in
  Alcotest.(check int) "round trip node count"
    (Store.node_count (Core.Api.store api))
    (Store.node_count store')

let suite =
  [
    Alcotest.test_case "contextual finds descendant" `Quick test_contextual_finds_descendant;
    Alcotest.test_case "textual baseline misses" `Quick test_textual_baseline_misses_descendant;
    Alcotest.test_case "contextual score decomposition" `Quick test_contextual_scores_decompose;
    Alcotest.test_case "contextual budget truncates" `Quick test_contextual_budget_truncates;
    Alcotest.test_case "contextual empty query" `Quick test_contextual_empty_query;
    Alcotest.test_case "personalize topical terms" `Quick test_personalize_picks_topical_terms;
    Alcotest.test_case "personalize empty history" `Quick test_personalize_empty_history;
    Alcotest.test_case "personalize reads a retitled page" `Quick
      test_personalize_reads_current_title;
    Alcotest.test_case "time search co-open wins" `Quick test_time_search_co_open_beats_far;
    Alcotest.test_case "search inside an expansion" `Quick test_search_inside_expansion;
    Alcotest.test_case "search after the graph grows" `Quick test_search_after_growth;
    Alcotest.test_case "lineage ancestors" `Quick test_lineage_ancestors;
    Alcotest.test_case "first recognizable" `Quick test_first_recognizable;
    Alcotest.test_case "downloads descending" `Quick test_downloads_descending;
    Alcotest.test_case "lineage ignores time edges" `Quick test_lineage_never_follows_time_edges;
    Alcotest.test_case "metrics" `Quick test_metrics;
    Alcotest.test_case "api index refresh" `Quick test_api_index_refresh;
    Alcotest.test_case "api persist" `Quick test_api_persist;
  ]
