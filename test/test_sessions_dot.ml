(* Session segmentation and DOT export. *)

module F = Core_fixtures
module Engine = Browser.Engine
module Sessions = Core.Sessions
module Dot = Core.Dot_export
module Store = Core.Prov_store

let two_session_history () =
  let web, engine, api = F.make ~seed:71 () in
  let tab = Engine.open_tab engine ~time:1000 () in
  let a = F.article web and h = F.hub web in
  let _ = Engine.visit_typed engine ~time:1000 ~tab h in
  let _ = Engine.visit_link engine ~time:1100 ~tab a in
  Engine.close_tab engine ~time:1200 tab;
  (* Four hours later: a second session. *)
  let tab2 = Engine.open_tab engine ~time:15_400 () in
  let _ = Engine.visit_typed engine ~time:15_400 ~tab:tab2 a in
  Engine.close_tab engine ~time:15_500 tab2;
  (web, engine, api)

let test_detect_two_sessions () =
  let _web, _engine, api = two_session_history () in
  let store = Core.Api.store api in
  match Sessions.detect store with
  | [ s1; s2 ] ->
    Alcotest.(check int) "first id" 0 s1.Sessions.id;
    Alcotest.(check int) "second id" 1 s2.Sessions.id;
    Alcotest.(check int) "first has two visits" 2 (Sessions.visit_count s1);
    Alcotest.(check int) "second has one" 1 (Sessions.visit_count s2);
    Alcotest.(check int) "first start" 1000 s1.Sessions.start;
    Alcotest.(check bool) "first stop covers close" true (s1.Sessions.stop >= 1100);
    Alcotest.(check bool) "chronological" true (s1.Sessions.stop < s2.Sessions.start)
  | other -> Alcotest.failf "expected 2 sessions, got %d" (List.length other)

let test_detect_gap_parameter () =
  let _web, _engine, api = two_session_history () in
  let store = Core.Api.store api in
  (* A huge gap threshold merges everything. *)
  Alcotest.(check int) "one merged session" 1
    (List.length (Sessions.detect ~gap:1_000_000 store))

let test_top_terms_and_describe () =
  let _web, _engine, api = two_session_history () in
  let store = Core.Api.store api in
  match Sessions.detect store with
  | s :: _ ->
    let terms = Sessions.top_terms store s in
    Alcotest.(check bool) "has terms" true (terms <> []);
    List.iter (fun (_, n) -> Alcotest.(check bool) "positive counts" true (n > 0)) terms;
    let line = Sessions.describe store s in
    Alcotest.(check bool) "describe mentions visits" true
      (Provkit_util.Strutil.contains_substring ~needle:"2 visits" line)
  | [] -> Alcotest.fail "no sessions"

let test_matching_sessions () =
  let _web, _engine, api, trace = F.simulated ~seed:72 ~days:2 () in
  let store = Core.Api.store api in
  let index = Core.Api.text_index api in
  let sessions = Sessions.detect store in
  Alcotest.(check bool) "several sessions" true (List.length sessions >= 3);
  match trace.Browser.User_model.searches with
  | [] -> ()
  | e :: _ ->
    let hits = Sessions.matching index sessions e.Browser.User_model.query in
    Alcotest.(check bool) "query matches some session" true (hits <> []);
    let scores = List.map snd hits in
    Alcotest.(check bool) "descending" true
      (List.sort (fun a b -> Float.compare b a) scores = scores)

let test_sessions_partition_visits () =
  let _web, _engine, api, _trace = F.simulated ~seed:73 ~days:1 () in
  let store = Core.Api.store api in
  let sessions = Sessions.detect store in
  let total = List.fold_left (fun acc s -> acc + Sessions.visit_count s) 0 sessions in
  let displayed =
    List.length
      (Provgraph.Digraph.filter_nodes (Store.graph store) (fun _ n ->
           Core.Time_edges.displayed_visit n && n.Core.Prov_node.time <> None))
  in
  Alcotest.(check int) "every displayed visit in exactly one session" displayed total

(* --- DOT export --- *)

let test_dot_escaping () =
  let store = Store.create () in
  let page =
    Store.add_page store ~url:"http://x/q?a=\"quoted\"" ~title:"title with \"quotes\" and \\slash"
      ~time:1
  in
  let origin =
    { Core.Lineage.node = page; distance = 0; path = [ page ]; truncated = false; elapsed_ms = 0.0 }
  in
  let dot = Dot.export_lineage store origin in
  Alcotest.(check bool) "escaped quotes" true
    (Provkit_util.Strutil.contains_substring ~needle:"\\\"" dot)

let test_dot_lineage_chain () =
  let web, engine, api = F.make ~seed:75 () in
  let tab = Engine.open_tab engine ~time:10 () in
  let host = F.first_of_kind web Webmodel.Page_content.Download_host in
  let _ = Engine.visit_typed engine ~time:20 ~tab host in
  let _ = Engine.visit_typed engine ~time:25 ~tab host in
  let _ = Engine.visit_typed engine ~time:28 ~tab host in
  let file = F.file_of_host web host in
  let download_id, _ = Engine.download engine ~time:30 ~tab ~file_page:file in
  let store = Core.Api.store api in
  let dnode = Option.get (Store.download_node store download_id) in
  match Core.Lineage.first_recognizable store dnode with
  | None -> Alcotest.fail "no origin"
  | Some origin ->
    let dot = Dot.export_lineage store origin in
    Alcotest.(check bool) "chain arrows" true
      (Provkit_util.Strutil.contains_substring ~needle:"->" dot);
    Alcotest.(check bool) "download node styled" true
      (Provkit_util.Strutil.contains_substring ~needle:"shape=\"note\"" dot)

let test_dot_save () =
  let path = Filename.temp_file "prov_dot" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let dot = "digraph provenance {\n}\n" in
      Dot.save ~path dot;
      Alcotest.(check string) "file written" dot
        (In_channel.with_open_bin path In_channel.input_all))

let suite =
  [
    Alcotest.test_case "detect two sessions" `Quick test_detect_two_sessions;
    Alcotest.test_case "gap parameter" `Quick test_detect_gap_parameter;
    Alcotest.test_case "top terms / describe" `Quick test_top_terms_and_describe;
    Alcotest.test_case "matching sessions" `Quick test_matching_sessions;
    Alcotest.test_case "sessions partition visits" `Quick test_sessions_partition_visits;
    Alcotest.test_case "dot escaping" `Quick test_dot_escaping;
    Alcotest.test_case "dot lineage chain" `Quick test_dot_lineage_chain;
    Alcotest.test_case "dot save" `Quick test_dot_save;
  ]
