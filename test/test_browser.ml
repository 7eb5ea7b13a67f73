(* Browser substrate: transitions, tabs, the engine's event emission and
   the Places baseline's (deliberate) information loss. *)

module Web = Webmodel.Web_graph
module Page = Webmodel.Page_content
module B = Browser
module Engine = Browser.Engine
module Event = Browser.Event
module Places = Browser.Places_db
module Transition = Browser.Transition

let fixture () =
  let web =
    Web.generate
      ~config:
        {
          Web.default_config with
          Web.n_topics = 3;
          sites_per_topic = 2;
          articles_per_site = 4;
        }
      ~seed:5 ()
  in
  let se = Webmodel.Search_engine.build web in
  (web, Engine.create ~web ~search:se ())

let first_article web =
  let rec scan i =
    if i >= Web.page_count web then Alcotest.fail "no article"
    else if (Web.page web i).Page.kind = Page.Article then i
    else scan (i + 1)
  in
  scan 0

let first_of_kind web kind =
  let rec scan i =
    if i >= Web.page_count web then None
    else if (Web.page web i).Page.kind = kind then Some i
    else scan (i + 1)
  in
  scan 0

(* --- transitions --- *)

let test_transition_codes () =
  List.iter
    (fun t ->
      Alcotest.(check bool) "roundtrip" true (Transition.of_code (Transition.to_code t) = t))
    Transition.all;
  Alcotest.(check bool) "codes distinct" true
    (List.length (List.sort_uniq Int.compare (List.map Transition.to_code Transition.all))
    = List.length Transition.all);
  Alcotest.(check bool) "bad code rejected" true
    (try
       ignore (Transition.of_code 99);
       false
     with Invalid_argument _ -> true)

(* --- tabs --- *)

let test_tabs () =
  let tabs = B.Tabs.create () in
  let t1 = B.Tabs.open_tab tabs () in
  let t2 = B.Tabs.open_tab tabs ~opener:t1 () in
  Alcotest.(check bool) "distinct ids" true (t1 <> t2);
  Alcotest.(check (list int)) "open tabs" [ t1; t2 ] (B.Tabs.open_tabs tabs);
  Alcotest.(check (option int)) "opener" (Some t1) (B.Tabs.opener tabs t2);
  Alcotest.(check (option int)) "no current yet" None (B.Tabs.current_visit tabs t1);
  B.Tabs.set_current_visit tabs t1 42;
  Alcotest.(check (option int)) "current set" (Some 42) (B.Tabs.current_visit tabs t1);
  B.Tabs.close_tab tabs t1;
  Alcotest.(check bool) "closed" false (List.mem t1 (B.Tabs.open_tabs tabs));
  Alcotest.(check bool) "closing twice rejected" true
    (try
       B.Tabs.close_tab tabs t1;
       false
     with Invalid_argument _ -> true);
  let t3 = B.Tabs.open_tab tabs () in
  Alcotest.(check bool) "ids not reused" true (t3 > t2)

(* --- engine event stream --- *)

let collect_events engine =
  let events = ref [] in
  Engine.subscribe engine (fun e -> events := e :: !events);
  fun () -> List.rev !events

let test_engine_visit_flow () =
  let web, engine = fixture () in
  let get_events = collect_events engine in
  let tab = Engine.open_tab engine ~time:10 () in
  let article = first_article web in
  let info = Engine.visit_typed engine ~time:20 ~tab article in
  Alcotest.(check (option int)) "page recorded" (Some article) info.Engine.page;
  (* Typed visit carries no referrer but IS the current visit. *)
  (match Engine.current_visit engine tab with
  | Some v -> Alcotest.(check int) "current" info.Engine.visit_id v.Engine.visit_id
  | None -> Alcotest.fail "no current visit");
  let second = Engine.visit_link engine ~time:30 ~tab article in
  Alcotest.(check bool) "fresh visit id" true (second.Engine.visit_id > info.Engine.visit_id);
  let events = get_events () in
  (* The first navigation must Close nothing; the second must Close the first. *)
  let closes =
    List.filter_map (function Event.Close { visit_id; _ } -> Some visit_id | _ -> None) events
  in
  Alcotest.(check (list int)) "close emitted on renavigation" [ info.Engine.visit_id ] closes;
  (* Link visit events carry the referrer even though Places will drop
     some of them. *)
  let link_visit =
    List.find_map
      (function
        | Event.Visit v when v.Event.visit_id = second.Engine.visit_id -> Some v
        | _ -> None)
      events
  in
  match link_visit with
  | Some v -> Alcotest.(check (option int)) "referrer" (Some info.Engine.visit_id) v.Event.referrer
  | None -> Alcotest.fail "link visit event missing"

let test_engine_redirect_follow () =
  let web, engine = fixture () in
  match first_of_kind web Page.Redirect with
  | None -> Alcotest.fail "fixture web has no redirect"
  | Some redirect ->
    let tab = Engine.open_tab engine ~time:10 () in
    let info = Engine.visit_link engine ~time:20 ~tab redirect in
    (* The returned visit is the final content page, not the redirect. *)
    (match info.Engine.page with
    | Some final ->
      Alcotest.(check bool) "landed on content" true ((Web.page web final).Page.kind <> Page.Redirect)
    | None -> Alcotest.fail "no final page");
    Alcotest.(check bool) "redirect transition recorded" true
      (List.exists
         (function
           | Event.Visit
               {
                 Event.transition = Transition.Redirect_permanent | Transition.Redirect_temporary;
                 _;
               } -> true
           | _ -> false)
         (Engine.event_log engine))

let test_engine_embeds_loaded () =
  let web, engine = fixture () in
  (* Find an article with embeds. *)
  let article =
    Array.to_list (Web.pages web)
    |> List.find_opt (fun (p : Page.t) ->
           p.Page.kind = Page.Article && Array.length p.Page.embeds > 0)
  in
  match article with
  | None -> ()  (* this seed produced no embeds; acceptable *)
  | Some p ->
    let tab = Engine.open_tab engine ~time:10 () in
    let info = Engine.visit_typed engine ~time:20 ~tab p.Page.id in
    let embed_visits =
      List.filter_map
        (function
          | Event.Visit v when v.Event.transition = Transition.Embed -> Some v
          | _ -> None)
        (Engine.event_log engine)
    in
    Alcotest.(check int) "one embed visit per embed" (Array.length p.Page.embeds)
      (List.length embed_visits);
    List.iter
      (fun (v : Event.visit) ->
        Alcotest.(check (option int)) "embed referrer is the page" (Some info.Engine.visit_id)
          v.Event.referrer)
      embed_visits;
    (* Embeds do not become the displayed visit. *)
    match Engine.current_visit engine tab with
    | Some v -> Alcotest.(check int) "top-level still current" info.Engine.visit_id v.Engine.visit_id
    | None -> Alcotest.fail "no current"

let test_engine_search_and_click () =
  let _web, engine = fixture () in
  let tab = Engine.open_tab engine ~time:10 () in
  let serp, results = Engine.search engine ~time:20 ~tab "wine" in
  Alcotest.(check bool) "serp has no page id" true (serp.Engine.page = None);
  Alcotest.(check bool) "results non-empty" true (results <> []);
  let search_events =
    List.filter_map
      (function
        | Event.Search { query; serp_visit; _ } -> Some (query, serp_visit)
        | _ -> None)
      (Engine.event_log engine)
  in
  (match search_events with
  | [ (query, serp_visit) ] ->
    Alcotest.(check string) "query captured" "wine" query;
    Alcotest.(check int) "serp visit linked" serp.Engine.visit_id serp_visit
  | _ -> Alcotest.fail "expected one search event");
  match results with
  | top :: _ ->
    let clicked = Engine.click_result engine ~time:30 ~tab top.Webmodel.Search_engine.page in
    let click_event =
      List.find_map
        (function
          | Event.Visit v when v.Event.visit_id = clicked.Engine.visit_id -> Some v
          | _ -> None)
        (Engine.event_log engine)
    in
    (match click_event with
    | Some v ->
      Alcotest.(check (option int)) "click referred by serp" (Some serp.Engine.visit_id)
        v.Event.referrer
    | None -> Alcotest.fail "click event missing")
  | [] -> ()

let test_engine_download () =
  let web, engine = fixture () in
  match Web.download_hosts web with
  | [] -> Alcotest.fail "no download host"
  | host :: _ ->
    let tab = Engine.open_tab engine ~time:10 () in
    let host_visit = Engine.visit_typed engine ~time:20 ~tab host in
    let file =
      Array.to_list (Web.page web host).Page.links
      |> List.find (fun l -> (Web.page web l).Page.kind = Page.File)
    in
    let download_id, fetch = Engine.download engine ~time:30 ~tab ~file_page:file in
    Alcotest.(check int) "first download id" 1 download_id;
    (* Tab still shows the host page. *)
    (match Engine.current_visit engine tab with
    | Some v -> Alcotest.(check int) "host still displayed" host_visit.Engine.visit_id v.Engine.visit_id
    | None -> Alcotest.fail "no current");
    let dl =
      List.find_map
        (function
          | Event.Download_started { source_visit; visit_id; _ } ->
            Some (source_visit, visit_id)
          | _ -> None)
        (Engine.event_log engine)
    in
    (match dl with
    | Some (source_visit, visit_id) ->
      Alcotest.(check int) "source visit" host_visit.Engine.visit_id source_visit;
      Alcotest.(check int) "fetch visit" fetch.Engine.visit_id visit_id
    | None -> Alcotest.fail "no download event")

let test_engine_bookmarks () =
  let web, engine = fixture () in
  let tab = Engine.open_tab engine ~time:10 () in
  let article = first_article web in
  let _ = Engine.visit_typed engine ~time:20 ~tab article in
  let bookmark = Engine.add_bookmark engine ~time:30 ~tab in
  Alcotest.(check int) "bookmark listed" 1 (List.length (Engine.bookmarks engine));
  let info = Engine.visit_bookmark engine ~time:40 ~tab ~bookmark in
  Alcotest.(check bool) "bookmark navigation" true (info.Engine.transition = Transition.Bookmark);
  Alcotest.(check bool) "unknown bookmark rejected" true
    (try
       ignore (Engine.visit_bookmark engine ~time:50 ~tab ~bookmark:999);
       false
     with Not_found -> true)

let test_engine_reload () =
  let web, engine = fixture () in
  let places = Engine.places engine in
  let tab = Engine.open_tab engine ~time:10 () in
  let article = first_article web in
  let first = Engine.visit_typed engine ~time:20 ~tab article in
  let again = Engine.reload engine ~time:30 ~tab in
  Alcotest.(check bool) "new visit instance" true
    (again.Engine.visit_id > first.Engine.visit_id);
  Alcotest.(check (option int)) "same page" (Some article) again.Engine.page;
  Alcotest.(check bool) "reload transition" true (again.Engine.transition = Transition.Reload);
  (* Places keeps the chain (reload is renderer-driven). *)
  (match Places.visit places again.Engine.visit_id with
  | Some row ->
    Alcotest.(check (option int)) "from_visit kept" (Some first.Engine.visit_id)
      row.Places.from_visit
  | None -> Alcotest.fail "reload visit missing");
  (* Reloads add no frecency but do count as visits. *)
  let url = Webmodel.Url.to_string (Web.page web article).Page.url in
  (match Places.place_by_url places url with
  | Some p -> Alcotest.(check int) "visit_count includes reload" 2 p.Places.visit_count
  | None -> Alcotest.fail "place missing");
  (* Reloading a SERP or an empty tab is rejected. *)
  let tab2 = Engine.open_tab engine ~time:40 () in
  Alcotest.(check bool) "empty tab rejected" true
    (try
       ignore (Engine.reload engine ~time:50 ~tab:tab2);
       false
     with Invalid_argument _ -> true);
  let _ = Engine.search engine ~time:60 ~tab:tab2 "wine" in
  Alcotest.(check bool) "serp rejected" true
    (try
       ignore (Engine.reload engine ~time:70 ~tab:tab2);
       false
     with Invalid_argument _ -> true)

let test_engine_bookmarked_serp () =
  (* Bookmarking a search-result page: the bookmark has no web page id,
     and revisiting it must reproduce the SERP URL. *)
  let _web, engine = fixture () in
  let tab = Engine.open_tab engine ~time:10 () in
  let serp, _ = Engine.search engine ~time:20 ~tab "wine cellar" in
  let bookmark = Engine.add_bookmark engine ~time:30 ~tab in
  let info = Engine.visit_bookmark engine ~time:40 ~tab ~bookmark in
  Alcotest.(check bool) "still no page id" true (info.Engine.page = None);
  Alcotest.(check string) "same url" (Webmodel.Url.to_string serp.Engine.url)
    (Webmodel.Url.to_string info.Engine.url);
  Alcotest.(check bool) "bookmark transition" true
    (info.Engine.transition = Transition.Bookmark)

let test_engine_form_submit () =
  let web, engine = fixture () in
  let tab = Engine.open_tab engine ~time:10 () in
  let article = first_article web in
  let source = Engine.visit_typed engine ~time:20 ~tab article in
  let result = Engine.submit_form engine ~time:30 ~tab ~fields:[ ("q", "x") ] ~result_page:article in
  let ev =
    List.find_map
      (function
        | Event.Form_submitted { source_visit; result_visit; _ } ->
          Some (source_visit, result_visit)
        | _ -> None)
      (Engine.event_log engine)
  in
  match ev with
  | Some (source_visit, result_visit) ->
    Alcotest.(check int) "source" source.Engine.visit_id source_visit;
    Alcotest.(check int) "result" result.Engine.visit_id result_visit
  | None -> Alcotest.fail "form event missing"

(* --- Places fidelity --- *)

let test_places_drops_typed_referrer () =
  let web, engine = fixture () in
  let places = Engine.places engine in
  let tab = Engine.open_tab engine ~time:10 () in
  let article = first_article web in
  let v1 = Engine.visit_link engine ~time:20 ~tab article in
  let v2 = Engine.visit_typed engine ~time:30 ~tab article in
  let v3 = Engine.visit_link engine ~time:40 ~tab article in
  (match Places.visit places v2.Engine.visit_id with
  | Some row ->
    Alcotest.(check (option int)) "typed loses referrer" None row.Places.from_visit
  | None -> Alcotest.fail "typed visit not stored");
  (match Places.visit places v3.Engine.visit_id with
  | Some row ->
    Alcotest.(check (option int)) "link keeps referrer" (Some v2.Engine.visit_id)
      row.Places.from_visit
  | None -> Alcotest.fail "link visit not stored");
  ignore v1

let test_places_counts_and_frecency () =
  let web, engine = fixture () in
  let places = Engine.places engine in
  let tab = Engine.open_tab engine ~time:100 () in
  let article = first_article web in
  let _ = Engine.visit_typed engine ~time:200 ~tab article in
  let _ = Engine.visit_link engine ~time:300 ~tab article in
  let url = Webmodel.Url.to_string (Web.page web article).Page.url in
  match Places.place_by_url places url with
  | Some p ->
    Alcotest.(check int) "visit_count" 2 p.Places.visit_count;
    Alcotest.(check (option int)) "last visit" (Some 300) p.Places.last_visit_date;
    Alcotest.(check bool) "frecency positive" true (p.Places.frecency > 0.0);
    Alcotest.(check bool) "not hidden" false p.Places.hidden
  | None -> Alcotest.fail "place missing"

let test_places_embeds_hidden () =
  let web, engine = fixture () in
  let places = Engine.places engine in
  let article =
    Array.to_list (Web.pages web)
    |> List.find_opt (fun (p : Page.t) ->
           p.Page.kind = Page.Article && Array.length p.Page.embeds > 0)
  in
  match article with
  | None -> ()
  | Some p ->
    let tab = Engine.open_tab engine ~time:10 () in
    let _ = Engine.visit_typed engine ~time:20 ~tab p.Page.id in
    let embed = (Web.page web p.Page.embeds.(0)).Page.url in
    (match Places.place_by_url places (Webmodel.Url.to_string embed) with
    | Some place -> Alcotest.(check bool) "embed hidden" true place.Places.hidden
    | None -> Alcotest.fail "embed place missing")

let test_places_search_goes_to_input_history () =
  let _web, engine = fixture () in
  let places = Engine.places engine in
  let tab = Engine.open_tab engine ~time:10 () in
  let _ = Engine.search engine ~time:20 ~tab "wine cellar" in
  let _ = Engine.search engine ~time:30 ~tab "wine cellar" in
  match Places.input_history places with
  | [ (_, input, uses) ] ->
    Alcotest.(check string) "query stored" "wine cellar" input;
    Alcotest.(check (float 1e-9)) "use count bumped" 2.0 uses
  | other -> Alcotest.failf "expected one input row, got %d" (List.length other)

let test_places_downloads_table () =
  let web, engine = fixture () in
  let places = Engine.places engine in
  (match Web.download_hosts web with
  | [] -> Alcotest.fail "no host"
  | host :: _ ->
    let tab = Engine.open_tab engine ~time:10 () in
    let _ = Engine.visit_typed engine ~time:20 ~tab host in
    let file =
      Array.to_list (Web.page web host).Page.links
      |> List.find (fun l -> (Web.page web l).Page.kind = Page.File)
    in
    let download_id, _ = Engine.download engine ~time:30 ~tab ~file_page:file in
    (match Places.downloads places with
    | [ (id, source, target, start) ] ->
      Alcotest.(check int) "id" download_id id;
      Alcotest.(check bool) "source is file url" true
        (Provkit_util.Strutil.contains_substring ~needle:"files" source);
      Alcotest.(check bool) "target path" true
        (Provkit_util.Strutil.is_prefix ~prefix:"/home/user/downloads/" target);
      Alcotest.(check int) "time" 30 start
    | other -> Alcotest.failf "expected one download, got %d" (List.length other)))

let test_places_ignores_closes_and_tabs () =
  let web, engine = fixture () in
  let places = Engine.places engine in
  let tab = Engine.open_tab engine ~time:10 () in
  let article = first_article web in
  let _ = Engine.visit_typed engine ~time:20 ~tab article in
  let before = Places.visit_count places in
  Engine.close_tab engine ~time:30 tab;
  Alcotest.(check int) "closing adds nothing to Places" before (Places.visit_count places)

(* --- history search baseline --- *)

let test_history_search_matches_own_text_only () =
  let web, engine = fixture () in
  let tab = Engine.open_tab engine ~time:10 () in
  let article = first_article web in
  let info = Engine.visit_typed engine ~time:20 ~tab article in
  let hs = B.History_search.build (Engine.places engine) in
  let title_word =
    match Textindex.Tokenizer.terms ~stem:false info.Engine.title with
    | w :: _ -> w
    | [] -> Alcotest.fail "article title empty"
  in
  (match B.History_search.search hs title_word with
  | r :: _ ->
    let p = Places.place (Engine.places engine) r.B.History_search.place_id in
    Alcotest.(check string) "found by own text" info.Engine.title p.Places.title
  | [] -> Alcotest.fail "title search missed");
  Alcotest.(check (list unit)) "no hallucinated matches" []
    (List.map (fun _ -> ()) (B.History_search.search hs "zzzznonexistent"))

(* --- user model --- *)

let small_user_config =
  {
    B.User_model.default_config with
    B.User_model.days = 3;
    sessions_per_day = 3;
    actions_per_session = 12;
  }

let run_small seed =
  let web, engine = fixture () in
  let rng = Provkit_util.Prng.create seed in
  let trace = B.User_model.run ~config:small_user_config ~rng engine in
  (web, engine, trace)

let test_user_model_produces_history () =
  let _web, engine, trace = run_small 17 in
  Alcotest.(check bool) "actions happened" true (trace.B.User_model.total_actions > 0);
  Alcotest.(check bool) "visits recorded" true (Places.visit_count (Engine.places engine) > 50);
  Alcotest.(check bool) "searches recorded" true (trace.B.User_model.searches <> [])

let test_user_model_deterministic () =
  let _, e1, t1 = run_small 23 in
  let _, e2, t2 = run_small 23 in
  Alcotest.(check int) "same visit count" (Places.visit_count (Engine.places e1))
    (Places.visit_count (Engine.places e2));
  Alcotest.(check int) "same searches" (List.length t1.B.User_model.searches)
    (List.length t2.B.User_model.searches);
  Alcotest.(check int) "same downloads" (List.length t1.B.User_model.downloads)
    (List.length t2.B.User_model.downloads)

let test_user_model_times_monotone () =
  let _web, engine, _trace = run_small 29 in
  let rec check_monotone last = function
    | [] -> ()
    | e :: rest ->
      let t = Event.time e in
      if t < last then Alcotest.failf "time went backwards: %d after %d" t last
      else check_monotone t rest
  in
  check_monotone min_int (Engine.event_log engine)

let test_user_model_tabs_all_closed () =
  let _web, engine, _trace = run_small 31 in
  Alcotest.(check (list int)) "no tab leaks" [] (Engine.open_tabs engine)

let test_user_model_episode_ground_truth () =
  let web, _engine, trace = run_small 37 in
  List.iter
    (fun (e : B.User_model.search_episode) ->
      (match e.B.User_model.clicked_page with
      | Some p -> Alcotest.(check bool) "clicked page valid" true (p < Web.page_count web)
      | None -> ());
      Alcotest.(check bool) "topic valid" true
        (e.B.User_model.intended_topic >= 0 && e.B.User_model.intended_topic < Web.topic_count web))
    trace.B.User_model.searches;
  List.iter
    (fun (d : B.User_model.download_episode) ->
      Alcotest.(check bool) "file kind" true
        ((Web.page web d.B.User_model.file_page).Page.kind = Page.File);
      Alcotest.(check bool) "host kind" true
        ((Web.page web d.B.User_model.host_page).Page.kind = Page.Download_host))
    trace.B.User_model.downloads

let suite =
  [
    Alcotest.test_case "transition codes" `Quick test_transition_codes;
    Alcotest.test_case "tabs" `Quick test_tabs;
    Alcotest.test_case "engine visit flow" `Quick test_engine_visit_flow;
    Alcotest.test_case "engine redirects" `Quick test_engine_redirect_follow;
    Alcotest.test_case "engine embeds" `Quick test_engine_embeds_loaded;
    Alcotest.test_case "engine search and click" `Quick test_engine_search_and_click;
    Alcotest.test_case "engine download" `Quick test_engine_download;
    Alcotest.test_case "engine bookmarks" `Quick test_engine_bookmarks;
    Alcotest.test_case "engine reload" `Quick test_engine_reload;
    Alcotest.test_case "engine bookmarked serp" `Quick test_engine_bookmarked_serp;
    Alcotest.test_case "engine form submit" `Quick test_engine_form_submit;
    Alcotest.test_case "places drops typed referrer" `Quick test_places_drops_typed_referrer;
    Alcotest.test_case "places counts and frecency" `Quick test_places_counts_and_frecency;
    Alcotest.test_case "places hides embeds" `Quick test_places_embeds_hidden;
    Alcotest.test_case "places input history" `Quick test_places_search_goes_to_input_history;
    Alcotest.test_case "places downloads" `Quick test_places_downloads_table;
    Alcotest.test_case "places ignores closes" `Quick test_places_ignores_closes_and_tabs;
    Alcotest.test_case "history search baseline" `Quick test_history_search_matches_own_text_only;
    Alcotest.test_case "user model produces history" `Quick test_user_model_produces_history;
    Alcotest.test_case "user model deterministic" `Quick test_user_model_deterministic;
    Alcotest.test_case "user model monotone time" `Quick test_user_model_times_monotone;
    Alcotest.test_case "user model closes tabs" `Quick test_user_model_tabs_all_closed;
    Alcotest.test_case "user model ground truth" `Quick test_user_model_episode_ground_truth;
  ]
