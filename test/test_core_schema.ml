(* Relational persistence of the provenance graph: round trips, the
   factorized columns, versioning-strategy comparison, derived time
   edges. *)

module F = Core_fixtures
module Store = Core.Prov_store
module PS = Core.Prov_schema
module PN = Core.Prov_node
module PE = Core.Prov_edge
module Digraph = Provgraph.Digraph

let edge_multiset store =
  let acc = ref [] in
  Digraph.iter_edges (Store.graph store) (fun src dst (e : PE.t) ->
      acc := (src, dst, PE.kind_code e.PE.kind, e.PE.time) :: !acc);
  List.sort compare !acc

let causal_edge_multiset store =
  List.filter (fun (_, _, k, _) -> k <> PE.kind_code PE.Same_time) (edge_multiset store)

let node_list store =
  List.map
    (fun id -> (id, Store.node store id))
    (Digraph.nodes (Store.graph store))

let test_roundtrip_preserves_graph () =
  let _web, _engine, api, _trace = F.simulated ~days:1 () in
  let store = Core.Api.store api in
  let db = PS.to_database store in
  let store' = PS.of_database db in
  Alcotest.(check int) "node count" (Store.node_count store) (Store.node_count store');
  (* Every node survives with its kind, times, and text. *)
  List.iter2
    (fun (id, (n : PN.t)) (id', (n' : PN.t)) ->
      Alcotest.(check int) "id" id id';
      Alcotest.(check int) "kind" (PN.kind_code n.PN.kind) (PN.kind_code n'.PN.kind);
      Alcotest.(check (option int)) "time" n.PN.time n'.PN.time;
      Alcotest.(check (option int)) "close" n.PN.close_time n'.PN.close_time;
      Alcotest.(check (list string)) "text terms" (PN.text_terms n) (PN.text_terms n'))
    (node_list store) (node_list store');
  (* Causal edges survive exactly. *)
  Alcotest.(check bool) "causal edges equal" true
    (causal_edge_multiset store = causal_edge_multiset store');
  (* Same_time edges are re-derived: all must connect genuinely
     overlapping displayed visits. *)
  let ti = Core.Time_edges.rebuild_time_index store' in
  Digraph.iter_edges (Store.graph store') (fun src dst (e : PE.t) ->
      if e.PE.kind = PE.Same_time then
        Alcotest.(check bool) "derived time edge overlaps" true
          (Core.Time_index.overlap ti src dst))

let test_roundtrip_via_bytes () =
  let _web, _engine, api, _trace = F.simulated ~days:1 ~seed:8 () in
  let store = Core.Api.store api in
  let db = PS.to_database store in
  let db' = Relstore.Database.of_bytes (Relstore.Database.to_bytes db) in
  let store' = PS.of_database db' in
  Alcotest.(check int) "nodes survive byte serialization" (Store.node_count store)
    (Store.node_count store')

let test_visit_rows_are_normalized () =
  let _web, _engine, api, _trace = F.simulated ~days:1 () in
  let db = PS.to_database (Core.Api.store api) in
  let nodes = Relstore.Database.table db PS.node_table in
  let schema = Relstore.Table.schema nodes in
  Relstore.Table.iter nodes (fun _ row ->
      if Relstore.Row.int schema row "kind" = 1 then begin
        (* visit *)
        Alcotest.(check (option string)) "no url on visit rows" None
          (Relstore.Row.text_opt schema row "url");
        Alcotest.(check bool) "page column set" true
          (Relstore.Row.int_opt schema row "page" <> None)
      end)

let test_no_same_time_rows_persisted () =
  let _web, _engine, api, _trace = F.simulated ~days:1 () in
  let db = PS.to_database (Core.Api.store api) in
  let edges = Relstore.Database.table db PS.edge_table in
  let schema = Relstore.Table.schema edges in
  Relstore.Table.iter edges (fun _ row ->
      Alcotest.(check bool) "not same-time" true
        (Relstore.Row.int schema row "kind" <> PE.kind_code PE.Same_time))

let test_form_fields_in_attr_table () =
  let web, engine, api = F.make () in
  let tab = Browser.Engine.open_tab engine ~time:10 () in
  let _ = Browser.Engine.visit_typed engine ~time:20 ~tab (F.article web) in
  let _ =
    Browser.Engine.submit_form engine ~time:30 ~tab
      ~fields:[ ("q", "roses"); ("lang", "en") ] ~result_page:(F.hub web)
  in
  let store = Core.Api.store api in
  let db = PS.to_database store in
  Alcotest.(check int) "two attr rows" 2
    (Relstore.Table.row_count (Relstore.Database.table db PS.attr_table));
  let store' = PS.of_database db in
  let forms =
    Store.nodes_of_kind store' (fun n ->
        match n.PN.kind with PN.Form_submission _ -> true | _ -> false)
  in
  match forms with
  | [ f ] -> begin
    match (Store.node store' f).PN.kind with
    | PN.Form_submission { fields } ->
      Alcotest.(check (list (pair string string))) "fields round trip"
        [ ("lang", "en"); ("q", "roses") ]
        (List.sort compare fields)
    | _ -> Alcotest.fail "not a form"
  end
  | other -> Alcotest.failf "expected one form node, got %d" (List.length other)

(* --- versioning strategies (S3.1) --- *)

let test_versioned_store_acyclic_projection_not () =
  let _web, _engine, api, _trace = F.simulated ~days:2 () in
  let store = Core.Api.store api in
  let c = Core.Versioning.compare_strategies store in
  Alcotest.(check bool) "versioned acyclic" true c.Core.Versioning.versioned_acyclic;
  Alcotest.(check bool) "projection smaller in nodes" true
    (c.Core.Versioning.projected_nodes < c.Core.Versioning.versioned_nodes);
  Alcotest.(check bool) "projection smaller on disk" true
    (c.Core.Versioning.projected_bytes < c.Core.Versioning.versioned_bytes);
  (* Revisit loops make the page projection cyclic in any realistic
     browsing trace — exactly the S3.1 problem. *)
  Alcotest.(check bool) "projection cyclic" false c.Core.Versioning.projected_acyclic

let test_page_projection_mapping () =
  let web, engine, api = F.make () in
  let store = Core.Api.store api in
  let tab = Browser.Engine.open_tab engine ~time:10 () in
  let v1 = Browser.Engine.visit_typed engine ~time:20 ~tab (F.article web) in
  let v2 = Browser.Engine.visit_link engine ~time:30 ~tab (F.hub web) in
  let pg = Core.Versioning.page_projection store in
  let n1 = Option.get (Store.visit_node store v1.Browser.Engine.visit_id) in
  let n2 = Option.get (Store.visit_node store v2.Browser.Engine.visit_id) in
  let p1 = Option.get (pg.Core.Versioning.page_of_store_node n1) in
  let p2 = Option.get (pg.Core.Versioning.page_of_store_node n2) in
  Alcotest.(check bool) "projected edge exists" true
    (List.mem p2 (Digraph.succ pg.Core.Versioning.graph p1));
  (* A page maps to itself. *)
  Alcotest.(check (option int)) "page maps to itself" (Some p1)
    (pg.Core.Versioning.page_of_store_node p1)

(* Time edges are not provenance: a cycle they close leaves the store
   acyclic, while the same cycle closed by a causal edge does not. *)
let test_acyclicity_ignores_time_edges () =
  let _web, _engine, api, _trace = F.simulated ~days:1 () in
  let store = Core.Api.store api in
  Alcotest.(check bool) "versioned store acyclic" true (Core.Versioning.is_acyclic store);
  let page, visit =
    Digraph.fold_edges (Store.graph store) ~init:None ~f:(fun acc src dst (e : PE.t) ->
        match acc with
        | None when e.PE.kind = PE.Instance -> Some (src, dst)
        | _ -> acc)
    |> Option.get
  in
  Store.add_edge store ~src:visit ~dst:page PE.Same_time ~time:0;
  Alcotest.(check bool) "a time edge closes no cycle" true (Core.Versioning.is_acyclic store);
  Store.add_edge store ~src:visit ~dst:page PE.Link_traversal ~time:0;
  Alcotest.(check bool) "a causal edge does" false (Core.Versioning.is_acyclic store)

(* --- derived time edges --- *)

let test_derive_same_time_counts () =
  let _web, _engine, api, _trace = F.simulated ~days:1 () in
  let store = Core.Api.store api in
  let live_count =
    List.fold_left
      (fun acc (_, _, k, _) -> if k = PE.kind_code PE.Same_time then acc + 1 else acc)
      0 (edge_multiset store)
  in
  (* Round-trip through the schema and compare the re-derived count:
     the sweep applies the same fanout-capped rule the capture used. *)
  let store' = PS.of_database (PS.to_database store) in
  let derived_count =
    List.fold_left
      (fun acc (_, _, k, _) -> if k = PE.kind_code PE.Same_time then acc + 1 else acc)
      0 (edge_multiset store')
  in
  Alcotest.(check bool) "derived count in the same ballpark" true
    (live_count = 0 || abs (derived_count - live_count) * 100 / max 1 live_count <= 25)

let test_queries_survive_roundtrip () =
  (* End to end: persist, reload, and ask the same questions — answers
     must be identical (modulo node ids, so compare URLs). *)
  let _web, _engine, api, trace = F.simulated ~days:1 ~seed:19 () in
  let store = Core.Api.store api in
  let store' = PS.of_database (PS.to_database store) in
  let index = Core.Api.text_index api in
  let index' = Core.Prov_text_index.build store' in
  let urls st resp =
    List.map
      (fun (r : Core.Contextual_search.result) ->
        match (Store.node st r.Core.Contextual_search.page).PN.kind with
        | PN.Page { url; _ } -> url
        | _ -> "?")
      resp.Core.Contextual_search.results
  in
  let queries =
    List.filteri (fun i _ -> i < 5)
      (List.map (fun (e : Browser.User_model.search_episode) -> e.Browser.User_model.query)
         trace.Browser.User_model.searches)
  in
  List.iter
    (fun q ->
      Alcotest.(check (list string)) ("same answers for " ^ q)
        (urls store (Core.Contextual_search.search index q))
        (urls store' (Core.Contextual_search.search index' q)))
    queries

let test_rebuild_time_index_matches () =
  let _web, _engine, api, _trace = F.simulated ~days:1 () in
  let store = Core.Api.store api in
  let live = Core.Api.time_index api in
  let rebuilt = Core.Time_edges.rebuild_time_index store in
  Alcotest.(check int) "same interval count" (Core.Time_index.size live)
    (Core.Time_index.size rebuilt)

(* The op fold, one op kind at a time. *)
let test_apply_maps_each_op () =
  let image = PS.image () in
  let node id kind = { PN.id; kind; time = Some id; close_time = None } in
  let visit =
    PN.Visit { url = "u"; title = "t"; transition = Browser.Transition.Link; tab = 1 }
  in
  let edge kind src dst = Store.Add_edge { src; dst; edge = { PE.kind; time = 7 } } in
  List.iter (PS.apply image)
    [
      Store.Add_node (node 1 (PN.Page { url = "u"; title = "t" }));
      Store.Add_node (node 2 visit);
      edge PE.Instance 1 2;
      Store.Add_node (node 3 (PN.Form_submission { fields = [ ("q", "a"); ("r", "b") ] }));
      edge PE.Same_time 2 3;
      edge PE.Form_source 2 3;
      Store.Close_node { id = 2; time = 9 };
      (* A re-add rewrites the row but keeps the page reference. *)
      Store.Add_node (node 2 visit);
      Store.Add_node (node 1 (PN.Page { url = "u"; title = "renamed" }));
    ];
  let db = PS.database image in
  let table = Relstore.Database.table db in
  let nodes = table PS.node_table in
  let schema = Relstore.Table.schema nodes in
  let col id name = Relstore.Row.get schema (Relstore.Table.get nodes id) name in
  Alcotest.(check (list int)) "node rowids are node ids" [ 1; 2; 3 ]
    (List.map fst (Relstore.Table.rows nodes));
  Alcotest.(check bool) "Instance fills the visit's page" true
    (Relstore.Value.equal (col 2 "page") (Relstore.Value.Int 1));
  Alcotest.(check bool) "a re-add replaces the close stamp with the payload's" true
    (Relstore.Value.is_null (col 2 "close_time"));
  Alcotest.(check bool) "a re-added page takes its new title" true
    (Relstore.Value.equal (col 1 "label") (Relstore.Value.Text "renamed"));
  Alcotest.(check int) "form fields become attr rows" 2
    (Relstore.Table.row_count (table PS.attr_table));
  Alcotest.(check int) "Instance and Same_time write no edge row" 1
    (Relstore.Table.row_count (table PS.edge_table));
  PS.apply image (Store.Close_node { id = 2; time = 9 });
  Alcotest.(check bool) "Close_node sets close_time" true
    (Relstore.Value.equal (col 2 "close_time") (Relstore.Value.Int 9));
  Alcotest.check_raises "a new node off the next rowid is refused"
    (Relstore.Errors.Corrupt "prov_node: node 5 would get rowid 4, not 5") (fun () ->
      PS.apply image (Store.Add_node (node 5 (PN.Search_term { query = "q" }))))

let suite =
  [
    Alcotest.test_case "roundtrip preserves graph" `Quick test_roundtrip_preserves_graph;
    Alcotest.test_case "roundtrip via bytes" `Quick test_roundtrip_via_bytes;
    Alcotest.test_case "visit rows normalized" `Quick test_visit_rows_are_normalized;
    Alcotest.test_case "same-time not persisted" `Quick test_no_same_time_rows_persisted;
    Alcotest.test_case "form fields attr table" `Quick test_form_fields_in_attr_table;
    Alcotest.test_case "apply maps each op" `Quick test_apply_maps_each_op;
    Alcotest.test_case "versioning comparison" `Quick test_versioned_store_acyclic_projection_not;
    Alcotest.test_case "page projection mapping" `Quick test_page_projection_mapping;
    Alcotest.test_case "acyclicity ignores time edges" `Quick test_acyclicity_ignores_time_edges;
    Alcotest.test_case "derived time edges" `Quick test_derive_same_time_counts;
    Alcotest.test_case "queries survive roundtrip" `Quick test_queries_survive_roundtrip;
    Alcotest.test_case "rebuilt time index" `Quick test_rebuild_time_index_matches;
  ]
