(* The capture layer: which events become which nodes/edges, the
   Firefox-fidelity ablation, and the acyclicity invariant under random
   browsing. *)

module F = Core_fixtures
module Engine = Browser.Engine
module Store = Core.Prov_store
module PE = Core.Prov_edge
module PN = Core.Prov_node
module Digraph = Provgraph.Digraph
module Transition = Browser.Transition

let edges_between store src dst =
  List.filter_map
    (fun (d, (e : PE.t)) -> if d = dst then Some e.PE.kind else None)
    (Digraph.out_edges (Store.graph store) src)

let visit_node store (info : Engine.visit_info) =
  Option.get (Store.visit_node store info.Engine.visit_id)

let test_link_traversal_edge () =
  let web, engine, api = F.make () in
  let store = Core.Api.store api in
  let tab = Engine.open_tab engine ~time:10 () in
  let v1 = Engine.visit_typed engine ~time:20 ~tab (F.article web) in
  let v2 = Engine.visit_link engine ~time:30 ~tab (F.hub web) in
  let n1 = visit_node store v1 and n2 = visit_node store v2 in
  Alcotest.(check bool) "link edge" true (List.mem PE.Link_traversal (edges_between store n1 n2))

let test_typed_edge_kept_by_full_capture () =
  let web, engine, api = F.make () in
  let store = Core.Api.store api in
  let tab = Engine.open_tab engine ~time:10 () in
  let v1 = Engine.visit_typed engine ~time:20 ~tab (F.article web) in
  let v2 = Engine.visit_typed engine ~time:30 ~tab (F.hub web) in
  let n1 = visit_node store v1 and n2 = visit_node store v2 in
  Alcotest.(check bool) "typed edge captured" true
    (List.mem PE.Typed_traversal (edges_between store n1 n2))

let test_typed_edge_dropped_by_firefox_capture () =
  let web, engine, api = F.make ~capture_config:Core.Capture.firefox_like () in
  let store = Core.Api.store api in
  let tab = Engine.open_tab engine ~time:10 () in
  let v1 = Engine.visit_typed engine ~time:20 ~tab (F.article web) in
  let v2 = Engine.visit_typed engine ~time:30 ~tab (F.hub web) in
  let n1 = visit_node store v1 and n2 = visit_node store v2 in
  Alcotest.(check (list unit)) "no relationship (the paper's complaint)" []
    (List.map (fun _ -> ()) (edges_between store n1 n2))

let test_instance_edges () =
  let web, engine, api = F.make () in
  let store = Core.Api.store api in
  let tab = Engine.open_tab engine ~time:10 () in
  let v = Engine.visit_typed engine ~time:20 ~tab (F.article web) in
  let n = visit_node store v in
  let page = Store.page_of_visit store n in
  Alcotest.(check bool) "instance edge" true (List.mem PE.Instance (edges_between store page n))

let test_search_capture () =
  let _web, engine, api = F.make () in
  let store = Core.Api.store api in
  let tab = Engine.open_tab engine ~time:10 () in
  let serp1, _ = Engine.search engine ~time:20 ~tab "rosebud" in
  let serp2, _ = Engine.search engine ~time:30 ~tab "rosebud" in
  let term = Option.get (Store.term_node store "rosebud") in
  let s1 = visit_node store serp1 and s2 = visit_node store serp2 in
  Alcotest.(check bool) "term -> serp1" true (List.mem PE.Search_query (edges_between store term s1));
  Alcotest.(check bool) "term -> serp2" true (List.mem PE.Search_query (edges_between store term s2));
  (* One term node for both searches. *)
  Alcotest.(check int) "term deduped" 1
    (List.length (Store.nodes_of_kind store PN.is_search_term))

let test_searched_from_only_on_fresh_terms () =
  let web, engine, api = F.make () in
  let store = Core.Api.store api in
  let tab = Engine.open_tab engine ~time:10 () in
  let v0 = Engine.visit_typed engine ~time:15 ~tab (F.article web) in
  let _ = Engine.search engine ~time:20 ~tab "wine" in
  let term = Option.get (Store.term_node store "wine") in
  let n0 = visit_node store v0 in
  Alcotest.(check bool) "fresh term gets searched-from" true
    (List.mem PE.Searched_from (edges_between store n0 term));
  (* Search the same query later from a different page: no new edge
     into the (old) term node — that is the cycle the versioning rule
     prevents. *)
  let v1 = Engine.visit_link engine ~time:30 ~tab (F.hub web) in
  let _ = Engine.search engine ~time:40 ~tab "wine" in
  let n1 = visit_node store v1 in
  Alcotest.(check (list unit)) "no edge into reused term" []
    (List.map (fun _ -> ()) (edges_between store n1 term))

let test_bookmark_capture () =
  let web, engine, api = F.make () in
  let store = Core.Api.store api in
  let tab = Engine.open_tab engine ~time:10 () in
  let v = Engine.visit_typed engine ~time:20 ~tab (F.article web) in
  let b = Engine.add_bookmark engine ~time:30 ~tab in
  let bnode = Option.get (Store.bookmark_node store b) in
  let vn = visit_node store v in
  Alcotest.(check bool) "bookmarked-from" true
    (List.mem PE.Bookmarked_from (edges_between store vn bnode));
  let v2 = Engine.visit_bookmark engine ~time:40 ~tab ~bookmark:b in
  let n2 = visit_node store v2 in
  Alcotest.(check bool) "bookmark traversal" true
    (List.mem PE.Bookmark_traversal (edges_between store bnode n2))

let test_download_capture () =
  let web, engine, api = F.make () in
  let store = Core.Api.store api in
  let tab = Engine.open_tab engine ~time:10 () in
  let host = F.first_of_kind web Webmodel.Page_content.Download_host in
  let hv = Engine.visit_typed engine ~time:20 ~tab host in
  let file = F.file_of_host web host in
  let download_id, fetch = Engine.download engine ~time:30 ~tab ~file_page:file in
  let dnode = Option.get (Store.download_node store download_id) in
  Alcotest.(check bool) "source edge" true
    (List.mem PE.Download_source (edges_between store (visit_node store hv) dnode));
  Alcotest.(check bool) "fetch edge" true
    (List.mem PE.Download_fetch (edges_between store (visit_node store fetch) dnode))

let test_form_capture () =
  let web, engine, api = F.make () in
  let store = Core.Api.store api in
  let tab = Engine.open_tab engine ~time:10 () in
  let v = Engine.visit_typed engine ~time:20 ~tab (F.article web) in
  let result =
    Engine.submit_form engine ~time:30 ~tab ~fields:[ ("q", "roses") ]
      ~result_page:(F.hub web)
  in
  let fnode =
    match Store.nodes_of_kind store (fun n -> match n.PN.kind with PN.Form_submission _ -> true | _ -> false) with
    | [ f ] -> f
    | other -> Alcotest.failf "expected one form node, got %d" (List.length other)
  in
  Alcotest.(check bool) "form source" true
    (List.mem PE.Form_source (edges_between store (visit_node store v) fnode));
  Alcotest.(check bool) "form result" true
    (List.mem PE.Form_result (edges_between store fnode (visit_node store result)))

let test_reload_edge () =
  let web, engine, api = F.make () in
  let store = Core.Api.store api in
  let tab = Engine.open_tab engine ~time:10 () in
  let v1 = Engine.visit_typed engine ~time:20 ~tab (F.article web) in
  let v2 = Engine.reload engine ~time:30 ~tab in
  let n1 = visit_node store v1 and n2 = visit_node store v2 in
  Alcotest.(check bool) "reload edge between instances" true
    (List.mem PE.Reload (edges_between store n1 n2));
  (* Both instances belong to the same page node - the reload cycle is
     broken by versioning exactly like any revisit (S3.1). *)
  Alcotest.(check bool) "same page object" true
    (Store.page_of_visit store n1 = Store.page_of_visit store n2);
  Alcotest.(check bool) "still acyclic" true (Core.Versioning.is_acyclic store)

let test_tab_spawn_edge () =
  let web, engine, api = F.make () in
  let store = Core.Api.store api in
  let tab = Engine.open_tab engine ~time:10 () in
  let v = Engine.visit_typed engine ~time:20 ~tab (F.article web) in
  let tab2 = Engine.open_tab engine ~time:30 ~opener:tab () in
  let v2 = Engine.visit_typed engine ~time:40 ~tab:tab2 (F.hub web) in
  Alcotest.(check bool) "tab spawn edge" true
    (List.mem PE.Tab_spawn (edges_between store (visit_node store v) (visit_node store v2)))

let test_same_time_edges_and_close_times () =
  let web, engine, api = F.make () in
  let store = Core.Api.store api in
  let ti = Core.Api.time_index api in
  let tab_a = Engine.open_tab engine ~time:10 () in
  let va = Engine.visit_typed engine ~time:20 ~tab:tab_a (F.article web) in
  let tab_b = Engine.open_tab engine ~time:25 () in
  let vb = Engine.visit_typed engine ~time:30 ~tab:tab_b (F.hub web) in
  let na = visit_node store va and nb = visit_node store vb in
  (* The earlier-opened visit points at the later one (S3.2's rule). *)
  Alcotest.(check bool) "same-time edge directed by open order" true
    (List.mem PE.Same_time (edges_between store na nb));
  Alcotest.(check bool) "no reverse edge" false
    (List.mem PE.Same_time (edges_between store nb na));
  Engine.close_tab engine ~time:50 tab_a;
  Alcotest.(check (option int)) "close time on node" (Some 50) (Store.node store na).PN.close_time;
  Alcotest.(check (option (pair int (option int)))) "interval closed" (Some (20, Some 50))
    (Core.Time_index.interval ti na)

let test_firefox_capture_drops_everything_extra () =
  let web, engine, api = F.make ~capture_config:Core.Capture.firefox_like () in
  let store = Core.Api.store api in
  let tab = Engine.open_tab engine ~time:10 () in
  let v = Engine.visit_typed engine ~time:20 ~tab (F.article web) in
  let _ = Engine.search engine ~time:30 ~tab "wine" in
  let _b = Engine.add_bookmark engine ~time:40 ~tab in
  Engine.close_tab engine ~time:50 tab;
  Alcotest.(check (list int)) "no term nodes" []
    (Store.nodes_of_kind store PN.is_search_term);
  Alcotest.(check (list int)) "no bookmark nodes" []
    (Store.nodes_of_kind store (fun n -> match n.PN.kind with PN.Bookmark _ -> true | _ -> false));
  let n = visit_node store v in
  Alcotest.(check (option int)) "no close times" None (Store.node store n).PN.close_time;
  let has_time_edges = ref false in
  Digraph.iter_edges (Store.graph store) (fun _ _ (e : PE.t) ->
      if e.PE.kind = PE.Same_time then has_time_edges := true);
  Alcotest.(check bool) "no time edges" false !has_time_edges

let test_observer_replay_equivalence () =
  (* Feeding a recorded event log through a detached observer must build
     the same store as live capture. *)
  let _web, engine, api, _trace = F.simulated ~days:1 () in
  let live = Core.Api.store api in
  let replayed, feed = Core.Capture.observer () in
  List.iter feed (Engine.event_log engine);
  let rstore = Core.Capture.store replayed in
  Alcotest.(check int) "same nodes" (Store.node_count live) (Store.node_count rstore);
  Alcotest.(check int) "same edges" (Store.edge_count live) (Store.edge_count rstore)

let prop_acyclic_under_random_browsing =
  QCheck.Test.make ~name:"causal provenance is always a DAG (S3.1)" ~count:8
    (QCheck.make QCheck.Gen.(int_bound 10_000)) (fun seed ->
      let _web, _engine, api, _trace = F.simulated ~seed ~days:1 () in
      Core.Versioning.is_acyclic (Core.Api.store api))

let prop_edges_time_monotone =
  QCheck.Test.make ~name:"causal edges never point back in time" ~count:5
    (QCheck.make QCheck.Gen.(int_bound 10_000)) (fun seed ->
      let _web, _engine, api, _trace = F.simulated ~seed ~days:1 () in
      let store = Core.Api.store api in
      let ok = ref true in
      Digraph.iter_edges (Store.graph store) (fun src dst (e : PE.t) ->
          if PE.is_causal e.PE.kind then begin
            let t_of n = Option.value ~default:0 (Store.node store n).PN.time in
            if t_of src > t_of dst then ok := false
          end);
      !ok)

let suite =
  [
    Alcotest.test_case "link traversal edge" `Quick test_link_traversal_edge;
    Alcotest.test_case "typed edge kept (full)" `Quick test_typed_edge_kept_by_full_capture;
    Alcotest.test_case "typed edge dropped (firefox)" `Quick test_typed_edge_dropped_by_firefox_capture;
    Alcotest.test_case "instance edges" `Quick test_instance_edges;
    Alcotest.test_case "search capture" `Quick test_search_capture;
    Alcotest.test_case "searched-from versioning rule" `Quick test_searched_from_only_on_fresh_terms;
    Alcotest.test_case "bookmark capture" `Quick test_bookmark_capture;
    Alcotest.test_case "download capture" `Quick test_download_capture;
    Alcotest.test_case "form capture" `Quick test_form_capture;
    Alcotest.test_case "reload edge" `Quick test_reload_edge;
    Alcotest.test_case "tab spawn edge" `Quick test_tab_spawn_edge;
    Alcotest.test_case "same-time edges and closes" `Quick test_same_time_edges_and_close_times;
    Alcotest.test_case "firefox capture drops extras" `Quick test_firefox_capture_drops_everything_extra;
    Alcotest.test_case "observer replay equivalence" `Quick test_observer_replay_equivalence;
    QCheck_alcotest.to_alcotest prop_acyclic_under_random_browsing;
    QCheck_alcotest.to_alcotest prop_edges_time_monotone;
  ]
