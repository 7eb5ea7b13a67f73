(* The S3.3 heterogeneous-join queries over the Places baseline. *)

module F = Core_fixtures
module Engine = Browser.Engine
module PQ = Browser.Places_queries

let scripted () =
  let web, engine, _api = F.make ~seed:41 () in
  let tab = Engine.open_tab engine ~time:10 () in
  (* search -> click -> bookmark: the bookmark is search-reachable. *)
  let _serp, results = Engine.search engine ~time:20 ~tab "wine" in
  let clicked =
    match results with r :: _ -> r.Webmodel.Search_engine.page | [] -> failwith "no results"
  in
  let _ = Engine.click_result engine ~time:30 ~tab clicked in
  let _b1 = Engine.add_bookmark engine ~time:40 ~tab in
  (* typed -> bookmark: this one is NOT search-reachable. *)
  let _ = Engine.visit_typed engine ~time:50 ~tab (F.hub web) in
  let _b2 = Engine.add_bookmark engine ~time:60 ~tab in
  (* a download from a host reached by link *)
  let host = F.first_of_kind web Webmodel.Page_content.Download_host in
  let _ = Engine.visit_link engine ~time:70 ~tab host in
  let file = F.file_of_host web host in
  let _ = Engine.download engine ~time:80 ~tab ~file_page:file in
  Engine.close_tab engine ~time:90 tab;
  (web, engine)

let test_bookmarks_reached_from_search () =
  let _web, engine = scripted () in
  let results = PQ.bookmarks_reached_from_search (Engine.places engine) in
  Alcotest.(check int) "two bookmarks" 2 (List.length results);
  let found =
    List.filter (fun (b : PQ.bookmark_origin) -> b.PQ.reached_from_search <> None) results
  in
  (* Only the search->click->bookmark one can be traced; the typed one
     dead-ends (Places drops the relationship). *)
  (match found with
  | [ b ] -> Alcotest.(check (option string)) "query recovered" (Some "wine") b.PQ.reached_from_search
  | other -> Alcotest.failf "expected exactly one traceable bookmark, got %d" (List.length other))

let test_downloads_with_referrers () =
  let _web, engine = scripted () in
  match PQ.downloads_with_referrers (Engine.places engine) with
  | [ d ] ->
    Alcotest.(check bool) "referrer is the host page" true
      (match d.PQ.referrer_url with
      | Some url -> Provkit_util.Strutil.contains_substring ~needle:"downloads" url
      | None -> false);
    Alcotest.(check bool) "target recorded" true
      (Provkit_util.Strutil.is_prefix ~prefix:"/home/user/downloads/" d.PQ.download_target)
  | other -> Alcotest.failf "expected one download, got %d" (List.length other)

let test_dead_end_rate () =
  let _web, engine = scripted () in
  let rate = PQ.dead_end_rate (Engine.places engine) in
  (* The SERP (typed), the typed hub visit and the bookmark navigation
     are dead ends; link clicks are not. *)
  Alcotest.(check bool) "strictly between 0 and 1" true (rate > 0.0 && rate < 1.0)

let test_empty_places () =
  let web = Webmodel.Web_graph.generate ~config:F.small_web_config ~seed:1 () in
  let se = Webmodel.Search_engine.build web in
  let engine = Engine.create ~web ~search:se () in
  let places = Engine.places engine in
  Alcotest.(check (list unit)) "no bookmarks" []
    (List.map (fun _ -> ()) (PQ.bookmarks_reached_from_search places));
  Alcotest.(check (list unit)) "no downloads" []
    (List.map (fun _ -> ()) (PQ.downloads_with_referrers places));
  Alcotest.(check (float 1e-9)) "dead-end rate of nothing" 0.0 (PQ.dead_end_rate places)

let suite =
  [
    Alcotest.test_case "bookmarks from search" `Quick test_bookmarks_reached_from_search;
    Alcotest.test_case "downloads with referrers" `Quick test_downloads_with_referrers;
    Alcotest.test_case "dead-end rate" `Quick test_dead_end_rate;
    Alcotest.test_case "empty places" `Quick test_empty_places;
  ]
