(* Prov_node/Prov_edge taxonomies, the Prov_store graph, Time_index and
   Query_budget. *)

module PN = Core.Prov_node
module PE = Core.Prov_edge
module Store = Core.Prov_store
module TI = Core.Time_index
module QB = Core.Query_budget
module Transition = Browser.Transition

(* --- node/edge taxonomies --- *)

let test_node_kind_codes_distinct () =
  let kinds =
    [
      PN.Page { url = "u"; title = "t" };
      PN.Visit { url = "u"; title = "t"; transition = Transition.Link; tab = 1 };
      PN.Bookmark { title = "t"; url = "u" };
      PN.Download { source_url = "u"; target_path = "p" };
      PN.Search_term { query = "q" };
      PN.Form_submission { fields = [] };
    ]
  in
  Alcotest.(check int) "codes distinct" (List.length kinds)
    (List.length (List.sort_uniq Int.compare (List.map PN.kind_code kinds)))

let test_node_text_terms () =
  let node kind = { PN.id = 1; kind; time = None; close_time = None } in
  let terms =
    PN.text_terms (node (PN.Page { url = "http://wine.example/cellar"; title = "Red Wines" }))
  in
  Alcotest.(check bool) "title term" true (List.mem "red" terms);
  Alcotest.(check bool) "url term" true (List.mem "wine" terms);
  let qterms = PN.text_terms (node (PN.Search_term { query = "plane tickets" })) in
  Alcotest.(check bool) "query terms" true (List.mem "plane" qterms && List.mem "ticket" qterms);
  let fterms = PN.text_terms (node (PN.Form_submission { fields = [ ("q", "gardening") ] })) in
  Alcotest.(check bool) "form value terms" true (List.mem "garden" fterms)

let test_edge_kind_codes_roundtrip () =
  List.iter
    (fun k -> Alcotest.(check bool) "roundtrip" true (PE.kind_of_code (PE.kind_code k) = k))
    PE.all_kinds;
  Alcotest.(check bool) "same_time not causal" false (PE.is_causal PE.Same_time);
  Alcotest.(check bool) "link causal" true (PE.is_causal PE.Link_traversal);
  Alcotest.(check bool) "redirect not user action" false (PE.is_user_action PE.Redirect)

(* --- store --- *)

let test_store_page_dedup () =
  let s = Store.create () in
  let p1 = Store.add_page s ~url:"http://x/1" ~title:"first" ~time:1 in
  let p2 = Store.add_page s ~url:"http://x/1" ~title:"renamed" ~time:2 in
  let p3 = Store.add_page s ~url:"http://x/2" ~title:"other" ~time:3 in
  Alcotest.(check int) "same url same node" p1 p2;
  Alcotest.(check bool) "different url" true (p1 <> p3);
  (match (Store.node s p1).PN.kind with
  | PN.Page { title; _ } -> Alcotest.(check string) "title refreshed" "renamed" title
  | _ -> Alcotest.fail "not a page");
  Alcotest.(check (option int)) "lookup" (Some p1) (Store.page_of_url s "http://x/1")

let test_store_visits_and_instances () =
  let s = Store.create () in
  let v1 =
    Store.add_visit s ~engine_visit:10 ~url:"http://x/1" ~title:"t"
      ~transition:Transition.Link ~tab:1 ~time:5
  in
  let v2 =
    Store.add_visit s ~engine_visit:11 ~url:"http://x/1" ~title:"t"
      ~transition:Transition.Typed ~tab:1 ~time:9
  in
  let page = Option.get (Store.page_of_url s "http://x/1") in
  Alcotest.(check (list int)) "instances" [ v1; v2 ] (Store.visits_of_page s page);
  Alcotest.(check int) "visit count" 2 (Store.page_visit_count s page);
  Alcotest.(check int) "page of visit" page (Store.page_of_visit s v1);
  Alcotest.(check (option int)) "engine id mapping" (Some v1) (Store.visit_node s 10);
  Alcotest.(check (option int)) "unknown engine id" None (Store.visit_node s 999)

let test_store_close_visit () =
  let s = Store.create () in
  let v =
    Store.add_visit s ~engine_visit:1 ~url:"http://x" ~title:"" ~transition:Transition.Link
      ~tab:1 ~time:100
  in
  Store.close_visit s ~engine_visit:1 ~time:150;
  Alcotest.(check (option int)) "close recorded" (Some 150) (Store.node s v).PN.close_time;
  Store.close_visit s ~engine_visit:42 ~time:1 (* unknown: no-op *)

let test_store_term_dedup_and_normalization () =
  let s = Store.create () in
  let t1 = Store.add_search_term s ~query:"Wine " ~time:1 in
  let t2 = Store.add_search_term s ~query:"wine" ~time:2 in
  Alcotest.(check int) "normalized dedup" t1 t2;
  Alcotest.(check (option int)) "lookup normalized" (Some t1) (Store.term_node s "  WINE ")

let test_store_hidden_pages () =
  let s = Store.create () in
  let _ =
    Store.add_visit s ~engine_visit:1 ~url:"http://img/1" ~title:""
      ~transition:Transition.Embed ~tab:1 ~time:1
  in
  let img = Option.get (Store.page_of_url s "http://img/1") in
  Alcotest.(check bool) "embed-only page hidden" true (Store.page_hidden s img);
  let _ =
    Store.add_visit s ~engine_visit:2 ~url:"http://img/1" ~title:""
      ~transition:Transition.Link ~tab:1 ~time:2
  in
  Alcotest.(check bool) "link visit reveals" false (Store.page_hidden s img);
  let p = Store.add_page s ~url:"http://never-visited" ~title:"" ~time:1 in
  Alcotest.(check bool) "no visits, not hidden" false (Store.page_hidden s p)

let test_store_stats () =
  let s = Store.create () in
  let v =
    Store.add_visit s ~engine_visit:1 ~url:"http://x" ~title:"" ~transition:Transition.Link
      ~tab:1 ~time:1
  in
  let d = Store.add_download s ~engine_download:1 ~source_url:"http://x" ~target_path:"/f" ~time:2 in
  Store.add_edge s ~src:v ~dst:d PE.Download_source ~time:2;
  let stats = Store.stats s in
  Alcotest.(check int) "nodes" 3 stats.Store.nodes_total;
  Alcotest.(check int) "edges" 2 stats.Store.edges_total;
  Alcotest.(check (option int)) "by kind" (Some 1)
    (List.assoc_opt "download" stats.Store.nodes_by_kind)

let test_store_restore () =
  let s = Store.create () in
  Store.restore_node s
    { PN.id = 7; kind = PN.Page { url = "http://x"; title = "t" }; time = Some 1; close_time = None };
  Store.restore_node s
    {
      PN.id = 9;
      kind = PN.Visit { url = "http://x"; title = "t"; transition = Transition.Link; tab = 0 };
      time = Some 2;
      close_time = None;
    };
  Store.restore_edge s ~src:7 ~dst:9 { PE.kind = PE.Instance; time = 2 };
  Alcotest.(check (option int)) "url lookup restored" (Some 7) (Store.page_of_url s "http://x");
  Alcotest.(check int) "instance restored" 7 (Store.page_of_visit s 9);
  (* Fresh ids continue above restored ones. *)
  let p = Store.add_page s ~url:"http://y" ~title:"" ~time:3 in
  Alcotest.(check bool) "next id above max" true (p > 9)

(* --- time index --- *)

let test_time_index_intervals () =
  let ti = TI.create () in
  TI.add ti ~node:1 ~opened:100;
  TI.close ti ~node:1 ~closed:200;
  TI.add ti ~node:2 ~opened:150;
  TI.close ti ~node:2 ~closed:300;
  TI.add ti ~node:3 ~opened:400;
  Alcotest.(check (option (pair int (option int)))) "interval" (Some (100, Some 200))
    (TI.interval ti 1);
  Alcotest.(check int) "size" 3 (TI.size ti);
  Alcotest.(check (list int)) "open at 170" [ 1; 2 ] (TI.in_window ti ~start:170 ~stop:170);
  Alcotest.(check (list int)) "open at 350" [] (TI.in_window ti ~start:350 ~stop:350);
  Alcotest.(check (list int)) "unclosed extends" [ 3 ] (TI.in_window ti ~start:10_000 ~stop:10_000);
  Alcotest.(check bool) "overlap symmetric" true (TI.overlap ti 1 2 && TI.overlap ti 2 1);
  Alcotest.(check bool) "no overlap" false (TI.overlap ti 1 3);
  Alcotest.(check (list int)) "window query" [ 1; 2 ] (TI.in_window ti ~start:0 ~stop:320);
  Alcotest.(check (option (pair int int))) "direction by open order" (Some (1, 2))
    (TI.direction ti 1 2);
  Alcotest.(check (option (pair int int))) "direction reversed args" (Some (1, 2))
    (TI.direction ti 2 1)

let test_time_index_close_clamps () =
  let ti = TI.create () in
  TI.add ti ~node:1 ~opened:100;
  TI.close ti ~node:1 ~closed:50;
  Alcotest.(check (option (pair int (option int)))) "clamped up" (Some (100, Some 100))
    (TI.interval ti 1);
  TI.close ti ~node:99 ~closed:1 (* unknown: no-op *)

let prop_time_index_overlap_symmetric =
  QCheck.Test.make ~name:"interval overlap is symmetric" ~count:200
    QCheck.(
      quad (int_bound 1000) (int_bound 500) (int_bound 1000) (int_bound 500))
    (fun (o1, d1, o2, d2) ->
      let ti = TI.create () in
      TI.add ti ~node:1 ~opened:o1;
      TI.close ti ~node:1 ~closed:(o1 + d1);
      TI.add ti ~node:2 ~opened:o2;
      TI.close ti ~node:2 ~closed:(o2 + d2);
      TI.overlap ti 1 2 = TI.overlap ti 2 1
      && TI.overlap ti 1 2 = (o1 <= o2 + d2 && o2 <= o1 + d1))

(* --- query budget --- *)

let test_budget_unlimited () =
  let r = QB.start QB.unlimited in
  Alcotest.(check bool) "no deadline" false (QB.out_of_time r);
  Alcotest.(check (option int)) "no node cap" None (QB.remaining_nodes r);
  QB.consume_nodes r 1_000_000;
  Alcotest.(check bool) "never exhausted" false (QB.exhausted r)

let test_budget_nodes () =
  let r = QB.start { QB.deadline_ms = None; node_budget = Some 100 } in
  QB.consume_nodes r 60;
  Alcotest.(check (option int)) "remaining" (Some 40) (QB.remaining_nodes r);
  QB.consume_nodes r 60;
  Alcotest.(check (option int)) "floored at zero" (Some 0) (QB.remaining_nodes r);
  Alcotest.(check bool) "exhausted" true (QB.exhausted r);
  Alcotest.(check bool) "truncation combined" true (QB.was_truncated r false)

let test_budget_deadline () =
  let r = QB.start (QB.deadline 0.000001) in
  (* Burn a little time. *)
  ignore (Sys.opaque_identity (List.init 10000 Fun.id));
  Alcotest.(check bool) "deadline passes" true (QB.out_of_time r);
  Alcotest.(check bool) "elapsed positive" true (QB.elapsed_ms r > 0.0)

let test_budget_paper_default () =
  Alcotest.(check (option (float 1e-9))) "200ms" (Some 200.0) QB.paper_default.QB.deadline_ms;
  Alcotest.(check bool) "node cap set" true (QB.paper_default.QB.node_budget <> None)

let suite =
  [
    Alcotest.test_case "node kind codes" `Quick test_node_kind_codes_distinct;
    Alcotest.test_case "node text terms" `Quick test_node_text_terms;
    Alcotest.test_case "edge kind codes" `Quick test_edge_kind_codes_roundtrip;
    Alcotest.test_case "page dedup" `Quick test_store_page_dedup;
    Alcotest.test_case "visits and instances" `Quick test_store_visits_and_instances;
    Alcotest.test_case "close visit" `Quick test_store_close_visit;
    Alcotest.test_case "term dedup" `Quick test_store_term_dedup_and_normalization;
    Alcotest.test_case "hidden pages" `Quick test_store_hidden_pages;
    Alcotest.test_case "stats" `Quick test_store_stats;
    Alcotest.test_case "restore" `Quick test_store_restore;
    Alcotest.test_case "time index intervals" `Quick test_time_index_intervals;
    Alcotest.test_case "time index clamping" `Quick test_time_index_close_clamps;
    QCheck_alcotest.to_alcotest prop_time_index_overlap_symmetric;
    Alcotest.test_case "budget unlimited" `Quick test_budget_unlimited;
    Alcotest.test_case "budget nodes" `Quick test_budget_nodes;
    Alcotest.test_case "budget deadline" `Quick test_budget_deadline;
    Alcotest.test_case "budget paper default" `Quick test_budget_paper_default;
  ]
