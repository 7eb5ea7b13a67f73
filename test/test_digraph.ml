(* The directed multigraph: adjacency, degrees, removal, iteration. *)

module G = Provgraph.Digraph

let diamond () =
  (* 1 -> 2, 1 -> 3, 2 -> 4, 3 -> 4 *)
  let g = G.create () in
  List.iter (fun n -> G.add_node g n (Printf.sprintf "n%d" n)) [ 1; 2; 3; 4 ];
  G.add_edge g ~src:1 ~dst:2 "a";
  G.add_edge g ~src:1 ~dst:3 "b";
  G.add_edge g ~src:2 ~dst:4 "c";
  G.add_edge g ~src:3 ~dst:4 "d";
  g

let test_nodes_and_payloads () =
  let g = diamond () in
  Alcotest.(check int) "node count" 4 (G.node_count g);
  Alcotest.(check int) "edge count" 4 (G.edge_count g);
  Alcotest.(check string) "payload" "n2" (G.node g 2);
  Alcotest.(check (option string)) "node_opt absent" None (G.node_opt g 99);
  Alcotest.(check bool) "mem" true (G.mem_node g 1);
  Alcotest.(check (list int)) "nodes sorted" [ 1; 2; 3; 4 ] (G.nodes g)

let test_payload_replace () =
  let g = diamond () in
  G.add_node g 2 "renamed";
  Alcotest.(check string) "replaced" "renamed" (G.node g 2);
  Alcotest.(check int) "edges kept" 4 (G.edge_count g)

let test_adjacency () =
  let g = diamond () in
  Alcotest.(check (list int)) "succ 1" [ 2; 3 ] (G.succ g 1);
  Alcotest.(check (list int)) "pred 4" [ 2; 3 ] (G.pred g 4);
  Alcotest.(check (list (pair int string))) "out edges ordered" [ (2, "a"); (3, "b") ]
    (G.out_edges g 1);
  Alcotest.(check (list (pair int string))) "in edges" [ (2, "c"); (3, "d") ] (G.in_edges g 4);
  Alcotest.(check int) "out degree" 2 (G.out_degree g 1);
  Alcotest.(check int) "in degree" 2 (G.in_degree g 4);
  Alcotest.(check (list int)) "unknown node empty" [] (G.succ g 42)

let test_multi_edges () =
  let g = diamond () in
  G.add_edge g ~src:1 ~dst:2 "again";
  Alcotest.(check int) "multi edge counted" 5 (G.edge_count g);
  Alcotest.(check int) "out degree counts multiplicity" 3 (G.out_degree g 1);
  Alcotest.(check (list int)) "succ dedupes" [ 2; 3 ] (G.succ g 1)

let test_self_loop () =
  let g = G.create () in
  G.add_node g 1 ();
  G.add_edge g ~src:1 ~dst:1 "loop";
  Alcotest.(check int) "edge" 1 (G.edge_count g);
  Alcotest.(check (list int)) "self succ" [ 1 ] (G.succ g 1)

let test_edge_requires_endpoints () =
  let g = G.create () in
  G.add_node g 1 ();
  Alcotest.check_raises "unknown dst" (Invalid_argument "Digraph.add_edge: unknown dst")
    (fun () -> G.add_edge g ~src:1 ~dst:2 ());
  Alcotest.check_raises "unknown src" (Invalid_argument "Digraph.add_edge: unknown src")
    (fun () -> G.add_edge g ~src:5 ~dst:1 ())

let test_iteration () =
  let g = diamond () in
  let nodes = G.fold_nodes g ~init:0 ~f:(fun acc _ _ -> acc + 1) in
  Alcotest.(check int) "fold nodes" 4 nodes;
  let edges = G.fold_edges g ~init:[] ~f:(fun acc s d _ -> (s, d) :: acc) in
  Alcotest.(check int) "fold edges" 4 (List.length edges);
  let seen = ref 0 in
  G.iter_edges g (fun _ _ _ -> incr seen);
  Alcotest.(check int) "iter edges" 4 !seen;
  Alcotest.(check (list int)) "filter nodes" [ 1; 2 ]
    (G.filter_nodes g (fun id _ -> id <= 2))

let suite =
  [
    Alcotest.test_case "nodes and payloads" `Quick test_nodes_and_payloads;
    Alcotest.test_case "payload replace" `Quick test_payload_replace;
    Alcotest.test_case "adjacency" `Quick test_adjacency;
    Alcotest.test_case "multi edges" `Quick test_multi_edges;
    Alcotest.test_case "self loop" `Quick test_self_loop;
    Alcotest.test_case "edge endpoints checked" `Quick test_edge_requires_endpoints;
    Alcotest.test_case "iteration" `Quick test_iteration;
  ]
