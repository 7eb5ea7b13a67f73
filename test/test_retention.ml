(* Provenance-preserving expiration: old visit instances go, page-level
   reachability stays. *)

module F = Core_fixtures
module Engine = Browser.Engine
module Store = Core.Prov_store
module R = Core.Retention

(* An old session that downloads a file, then a much later session. *)
let build_history () =
  let web, engine, api = F.make ~seed:91 () in
  let host = F.first_of_kind web Webmodel.Page_content.Download_host in
  let hub = F.hub web in
  let tab = Engine.open_tab engine ~time:1000 () in
  let _ = Engine.visit_typed engine ~time:1000 ~tab hub in
  let _ = Engine.visit_link engine ~time:1100 ~tab host in
  let file = F.file_of_host web host in
  let download_id, _ = Engine.download engine ~time:1200 ~tab ~file_page:file in
  Engine.close_tab engine ~time:1300 tab;
  let tab2 = Engine.open_tab engine ~time:900_000 () in
  let recent = Engine.visit_typed engine ~time:900_000 ~tab:tab2 (F.article web) in
  Engine.close_tab engine ~time:900_100 tab2;
  (web, api, hub, host, download_id, recent)

let page_node api web p =
  Option.get
    (Store.page_of_url (Core.Api.store api)
       (Webmodel.Url.to_string (Webmodel.Web_graph.page web p).Webmodel.Page_content.url))

let test_expire_drops_old_visits_keeps_anchors () =
  let web, api, _hub, _host, download_id, recent = build_history () in
  let store = Core.Api.store api in
  let before = Store.node_count store in
  let r = R.expire ~cutoff:500_000 store in
  Alcotest.(check bool) "visits expired" true (r.R.expired_visits > 0);
  Alcotest.(check int) "kept = before - expired" (before - r.R.expired_visits) r.R.kept_nodes;
  Alcotest.(check int) "store matches" r.R.kept_nodes (Store.node_count r.R.store);
  (* Anchors survive: pages, the download node, the recent visit. *)
  Alcotest.(check bool) "download kept" true
    (Store.node_opt r.R.store (Option.get (Store.download_node store download_id)) <> None);
  let recent_node = Option.get (Store.visit_node store recent.Engine.visit_id) in
  Alcotest.(check bool) "recent visit kept" true (Store.node_opt r.R.store recent_node <> None);
  ignore web

let test_expire_preserves_descendant_reachability () =
  let web, api, hub, _host, download_id, _recent = build_history () in
  let store = Core.Api.store api in
  let dnode = Option.get (Store.download_node store download_id) in
  let hub_page = page_node api web hub in
  (* Before expiry the download descends from the session's hub page. *)
  let before = Core.Lineage.downloads_descending store hub_page in
  Alcotest.(check (list int)) "descends before" [ dnode ] before.Core.Lineage.downloads;
  (* After expiring every visit of that era, the summary edges keep the
     page-level lineage alive. *)
  let r = R.expire ~cutoff:500_000 store in
  let after = Core.Lineage.downloads_descending r.R.store hub_page in
  Alcotest.(check (list int)) "still descends after expiry" [ dnode ]
    after.Core.Lineage.downloads;
  Alcotest.(check bool) "summaries were created" true (r.R.summary_edges > 0)

let test_expire_keeps_recent_era_verbatim () =
  let _web, _engine, api, trace = F.simulated ~seed:92 ~days:2 () in
  let store = Core.Api.store api in
  ignore trace;
  (* Cutoff before everything: nothing expires, graph is identical. *)
  let r = R.expire ~cutoff:0 store in
  Alcotest.(check int) "no visits expired" 0 r.R.expired_visits;
  Alcotest.(check int) "nodes identical" (Store.node_count store) (Store.node_count r.R.store);
  Alcotest.(check int) "edges identical" (Store.edge_count store) (Store.edge_count r.R.store)

let test_expire_everything_leaves_projection () =
  let _web, _engine, api, _trace = F.simulated ~seed:93 ~days:1 () in
  let store = Core.Api.store api in
  let r = R.expire ~cutoff:max_int store in
  (* No visit instances remain... *)
  Alcotest.(check (list int)) "no visits left" []
    (Store.nodes_of_kind r.R.store Core.Prov_node.is_visit);
  (* ...but pages and the summarized structure do. *)
  Alcotest.(check bool) "pages survive" true
    (Store.nodes_of_kind r.R.store Core.Prov_node.is_page <> []);
  Alcotest.(check bool) "summary structure present" true (r.R.summary_edges > 0);
  Alcotest.(check bool) "result acyclic?" true
    (* The fully summarized store is the page projection and may be
       cyclic — exactly the S3.1 trade-off; assert it loads and walks. *)
    (Store.node_count r.R.store > 0)

let test_expired_store_persists () =
  let _web, _engine, api, _trace = F.simulated ~seed:94 ~days:1 () in
  let store = Core.Api.store api in
  let r = R.expire ~cutoff:43_200 store in
  let db = Core.Prov_schema.to_database r.R.store in
  let reloaded = Core.Prov_schema.of_database db in
  Alcotest.(check int) "expired store round trips" (Store.node_count r.R.store)
    (Store.node_count reloaded);
  Alcotest.(check bool) "smaller than the original image" true
    (Relstore.Database.total_size db
    < Relstore.Database.total_size (Core.Prov_schema.to_database store))

let suite =
  [
    Alcotest.test_case "drops old, keeps anchors" `Quick test_expire_drops_old_visits_keeps_anchors;
    Alcotest.test_case "descendants survive expiry" `Quick test_expire_preserves_descendant_reachability;
    Alcotest.test_case "cutoff 0 is identity" `Quick test_expire_keeps_recent_era_verbatim;
    Alcotest.test_case "full expiry leaves projection" `Quick test_expire_everything_leaves_projection;
    Alcotest.test_case "expired store persists" `Quick test_expired_store_persists;
  ]
