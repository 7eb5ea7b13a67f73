(* The smart location bar: the Places-faithful baseline (adaptive +
   frecency) and the provenance context-aware variant. *)

module F = Core_fixtures
module Engine = Browser.Engine
module AB = Browser.Awesomebar
module Suggest = Core.Suggest
module Store = Core.Prov_store
module Web = Webmodel.Web_graph

(* Two senses of an ambiguous term; the film sense is visited more, the
   gardening sense is what the current session is about. *)
let ambiguous_history () =
  let web, engine, api = F.make ~seed:51 () in
  let ambiguity = List.hd (Web.ambiguities web) in
  let sense_a = List.hd ambiguity.Web.pages_a in
  let sense_b = List.hd ambiguity.Web.pages_b in
  let tab = Engine.open_tab engine ~time:100 () in
  let clock = ref 100 in
  let visit p =
    clock := !clock + 30;
    ignore (Engine.visit_typed engine ~time:!clock ~tab p)
  in
  (* Sense A is globally popular: five visits. *)
  for _ = 1 to 5 do
    visit sense_a
  done;
  (* Sense B visited once, from within its topic's pages. *)
  List.iter visit (Web.hubs_of_topic web ambiguity.Web.topic_b);
  visit sense_b;
  (* Current context: a page of topic B is on screen. *)
  let context_page = List.hd (Web.hubs_of_topic web ambiguity.Web.topic_b) in
  let ctx_visit = Engine.visit_typed engine ~time:(!clock + 30) ~tab context_page in
  (web, engine, api, ambiguity, sense_a, sense_b, ctx_visit)

let page_url web p = Webmodel.Url.to_string (Web.page web p).Webmodel.Page_content.url

(* --- baseline awesomebar --- *)

let test_awesomebar_matches_and_ranks_by_frecency () =
  let web, engine, _api, ambiguity, sense_a, _sense_b, _ctx = ambiguous_history () in
  let bar = AB.build (Engine.places engine) in
  match AB.suggest bar ambiguity.Web.term with
  | top :: _ ->
    Alcotest.(check string) "most-visited sense wins on frecency" (page_url web sense_a) top.AB.url;
    Alcotest.(check bool) "not adaptive yet" false top.AB.adaptive
  | [] -> Alcotest.fail "no suggestions"

let test_awesomebar_empty_and_nonsense () =
  let _web, engine, _api, _ambiguity, _a, _b, _ctx = ambiguous_history () in
  let bar = AB.build (Engine.places engine) in
  Alcotest.(check (list unit)) "empty input" [] (List.map (fun _ -> ()) (AB.suggest bar "  "));
  Alcotest.(check (list unit)) "nonsense input" []
    (List.map (fun _ -> ()) (AB.suggest bar "zzzzqqqq"))

let test_awesomebar_adaptive_learning () =
  let web, engine, _api, ambiguity, _sense_a, sense_b, _ctx = ambiguous_history () in
  let places = Engine.places engine in
  let bar = AB.build places in
  let sense_b_place =
    match Browser.Places_db.place_by_url places (page_url web sense_b) with
    | Some p -> p.Browser.Places_db.place_id
    | None -> Alcotest.fail "place missing"
  in
  (* The user picks the gardening sense once; it now dominates for the
     same typed input, and for extensions of it. *)
  AB.accept bar ~input:ambiguity.Web.term ~place_id:sense_b_place;
  (match AB.suggest bar ambiguity.Web.term with
  | top :: _ ->
    Alcotest.(check int) "adaptive override" sense_b_place top.AB.place_id;
    Alcotest.(check bool) "flagged adaptive" true top.AB.adaptive
  | [] -> Alcotest.fail "no suggestions");
  let prefix = String.sub ambiguity.Web.term 0 3 in
  match AB.suggest bar prefix with
  | top :: _ -> Alcotest.(check int) "prefix inherits the choice" sense_b_place top.AB.place_id
  | [] -> Alcotest.fail "no prefix suggestions"

let test_awesomebar_limit () =
  let _web, engine, _api, _ambiguity, _a, _b, _ctx = ambiguous_history () in
  let bar = AB.build (Engine.places engine) in
  Alcotest.(check bool) "limit respected" true
    (List.length (AB.suggest ~limit:2 bar "example") <= 2)

(* Regression: the bar's place snapshot was built once and never
   revalidated, so anything visited after [build] was invisible until a
   manual [refresh].  The snapshot is now validated against the
   moz_places epoch on every [suggest]. *)
let test_awesomebar_snapshot_never_stale () =
  let web, engine, _api, ambiguity, _a, _b, _ctx = ambiguous_history () in
  let places = Engine.places engine in
  let bar = AB.build places in
  (* Warm the snapshot, then visit a page the store has never seen. *)
  ignore (AB.suggest bar ambiguity.Web.term);
  let fresh =
    Array.to_list (Web.pages web)
    |> List.find (fun (p : Webmodel.Page_content.t) ->
           Browser.Places_db.place_by_url places
             (Webmodel.Url.to_string p.Webmodel.Page_content.url)
           = None)
  in
  let fresh_url = Webmodel.Url.to_string fresh.Webmodel.Page_content.url in
  Alcotest.(check (list unit)) "unknown page suggests nothing" []
    (List.map (fun _ -> ()) (AB.suggest bar fresh_url));
  let tab = Engine.open_tab engine ~time:9000 () in
  ignore (Engine.visit_typed engine ~time:9010 ~tab fresh.Webmodel.Page_content.id);
  (* No AB.refresh here: suggest itself must notice the epoch moved. *)
  Alcotest.(check bool) "new visit is suggested without a manual refresh" true
    (List.exists (fun s -> s.AB.url = fresh_url) (AB.suggest bar fresh_url))

(* --- provenance suggestions --- *)

let test_suggest_without_context_follows_popularity () =
  let web, _engine, api, ambiguity, sense_a, _sense_b, _ctx = ambiguous_history () in
  let store = Core.Api.store api in
  match Suggest.suggest store ambiguity.Web.term with
  | top :: _ ->
    Alcotest.(check string) "baseline = popularity" (page_url web sense_a) top.Suggest.url;
    Alcotest.(check (float 1e-9)) "no context mass" 0.0 top.Suggest.context_score
  | [] -> Alcotest.fail "no suggestions"

let test_suggest_with_context_flips_the_sense () =
  let web, _engine, api, ambiguity, sense_a, sense_b, ctx_visit = ambiguous_history () in
  let store = Core.Api.store api in
  let ctx_node = Option.get (Store.visit_node store ctx_visit.Engine.visit_id) in
  match Suggest.suggest ~context:[ ctx_node ] store ambiguity.Web.term with
  | top :: _ ->
    Alcotest.(check string) "context wins over popularity" (page_url web sense_b)
      top.Suggest.url;
    Alcotest.(check bool) "context mass present" true (top.Suggest.context_score > 0.0);
    ignore sense_a
  | [] -> Alcotest.fail "no suggestions"

let test_suggest_hidden_pages_excluded () =
  let web, engine, api = F.make ~seed:52 () in
  (* Visit a page with embeds; its images are history entries but must
     never be suggested. *)
  let article =
    Array.to_list (Web.pages web)
    |> List.find_opt (fun (p : Webmodel.Page_content.t) ->
           p.Webmodel.Page_content.kind = Webmodel.Page_content.Article
           && Array.length p.Webmodel.Page_content.embeds > 0)
  in
  match article with
  | None -> ()
  | Some p ->
    let tab = Engine.open_tab engine ~time:10 () in
    let _ = Engine.visit_typed engine ~time:20 ~tab p.Webmodel.Page_content.id in
    let store = Core.Api.store api in
    List.iter
      (fun s ->
        Alcotest.(check bool) "no image suggestions" false
          (Provkit_util.Strutil.contains_substring ~needle:"/img/" s.Suggest.url))
      (Suggest.suggest store "image")

let test_suggest_empty_input () =
  let _web, _engine, api, _ambiguity, _a, _b, _ctx = ambiguous_history () in
  Alcotest.(check (list unit)) "empty typed" []
    (List.map (fun _ -> ()) (Suggest.suggest (Core.Api.store api) ""))

(* --- against the Hashtbl expansion --- *)

(* Suggest as it was, its context mass looked up in Graph_model's
   Hashtbl expansion over a model of the store's graph. *)
let reference_suggest ~config model store ~context typed =
  let limit = 6 in
  let needle = String.lowercase_ascii typed in
  let matches s = Provkit_util.Strutil.contains_substring ~needle (String.lowercase_ascii s) in
  let candidates =
    Provgraph.Digraph.fold_nodes (Store.graph store) ~init:[] ~f:(fun acc id n ->
        match n.Core.Prov_node.kind with
        | Core.Prov_node.Page { url; title }
          when (matches url || matches title) && not (Store.page_hidden store id) ->
          (id, url, title) :: acc
        | _ -> acc)
  in
  let nconfig =
    {
      Provgraph.Neighborhood.default_config with
      Provgraph.Neighborhood.max_hops = config.Suggest.max_hops;
      decay = config.Suggest.decay;
    }
  in
  let follow ~src:_ ~dst:_ (e : Core.Prov_edge.t) = Core.Prov_edge.is_causal e.Core.Prov_edge.kind in
  let mass, _ =
    Graph_model.expand ~config:nconfig ~follow model ~seeds:(List.map (fun n -> (n, 1.0)) context)
  in
  let get id = Option.value ~default:0.0 (Hashtbl.find_opt mass id) in
  let scored =
    List.map
      (fun (page, url, title) ->
        let base = log (1.0 +. float_of_int (Store.page_visit_count store page)) in
        let ctx = List.fold_left (fun acc v -> acc +. get v) (get page) (Store.visits_of_page store page) in
        {
          Suggest.page;
          url;
          title;
          base_score = base;
          context_score = ctx;
          score = (config.Suggest.frecency_weight *. base) +. (config.Suggest.context_weight *. ctx);
        })
      candidates
  in
  List.filteri
    (fun i _ -> i < limit)
    (List.sort
       (fun (a : Suggest.suggestion) b ->
         let c = Float.compare b.Suggest.score a.Suggest.score in
         if c <> 0 then c else Int.compare a.Suggest.page b.Suggest.page)
       scored)

let render (ss : Suggest.suggestion list) =
  List.map
    (fun (s : Suggest.suggestion) ->
      Printf.sprintf "%d %h %h %h" s.Suggest.page s.Suggest.score s.Suggest.base_score
        s.Suggest.context_score)
    ss

(* On the 20-day history, contexts of one to three random visits and
   the first four letters of each search episode's first term typed:
   the same suggestions, bit for bit.  With the default decay of 0.5
   every mass is a power of two times a seed's, so its sums are exact
   in any order; a decay of 0.3 makes the order of each page's sum
   show. *)
let test_suggest_against_reference () =
  let ds = Harness.Dataset.with_days 20 in
  let store = Harness.Dataset.store ds in
  let model = Graph_model.Digraph.of_digraph (Store.graph store) in
  let visits = Array.of_list (Store.nodes_of_kind store Core.Prov_node.is_visit) in
  let rng = Test_seed.prng ~salt:0x5e66 in
  let typed =
    List.sort_uniq String.compare
      (List.filter_map
         (fun (e : Browser.User_model.search_episode) ->
           match String.split_on_char ' ' e.Browser.User_model.query with
           | term :: _ when String.length term >= 4 -> Some (String.sub term 0 4)
           | _ -> None)
         ds.Harness.Dataset.trace.Browser.User_model.searches)
  in
  let with_context = ref 0 in
  List.iter
    (fun typed ->
      let context = List.init (1 + Provkit_util.Prng.int rng 3) (fun _ -> Provkit_util.Prng.pick rng visits) in
      List.iter
        (fun config ->
          let got = Suggest.suggest ~config ~context store typed in
          Alcotest.(check (list string)) ("suggest " ^ typed)
            (render (reference_suggest ~config model store ~context typed)) (render got);
          if List.exists (fun (s : Suggest.suggestion) -> s.Suggest.context_score > 0.0) got then
            incr with_context)
        [ Suggest.default_config; { Suggest.default_config with Suggest.decay = 0.3 } ])
    typed;
  Alcotest.(check bool) "context moved some suggestions" true (!with_context > 0)

let suite =
  [
    Alcotest.test_case "awesomebar frecency ranking" `Quick test_awesomebar_matches_and_ranks_by_frecency;
    Alcotest.test_case "awesomebar empty/nonsense" `Quick test_awesomebar_empty_and_nonsense;
    Alcotest.test_case "awesomebar adaptive" `Quick test_awesomebar_adaptive_learning;
    Alcotest.test_case "awesomebar limit" `Quick test_awesomebar_limit;
    Alcotest.test_case "awesomebar snapshot never stale" `Quick
      test_awesomebar_snapshot_never_stale;
    Alcotest.test_case "suggest baseline popularity" `Quick test_suggest_without_context_follows_popularity;
    Alcotest.test_case "suggest context flips sense" `Quick test_suggest_with_context_flips_the_sense;
    Alcotest.test_case "suggest hides embeds" `Quick test_suggest_hidden_pages_excluded;
    Alcotest.test_case "suggest empty input" `Quick test_suggest_empty_input;
    Alcotest.test_case "suggest against the Hashtbl expansion" `Quick test_suggest_against_reference;
  ]
