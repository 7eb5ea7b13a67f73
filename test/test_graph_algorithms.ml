(* Traversals, paths, cycles, HITS, PageRank and neighborhood expansion,
   including qcheck properties on random DAGs. *)

module G = Provgraph.Digraph
module Tr = Provgraph.Traversal
module C = Provgraph.Cycle
module Prng = Provkit_util.Prng

let chain n =
  let g = G.create () in
  for i = 1 to n do
    G.add_node g i ()
  done;
  for i = 1 to n - 1 do
    G.add_edge g ~src:i ~dst:(i + 1) ()
  done;
  g

let diamond () =
  let g = G.create () in
  List.iter (fun n -> G.add_node g n ()) [ 1; 2; 3; 4 ];
  G.add_edge g ~src:1 ~dst:2 ();
  G.add_edge g ~src:1 ~dst:3 ();
  G.add_edge g ~src:2 ~dst:4 ();
  G.add_edge g ~src:3 ~dst:4 ();
  g

let cycle3 () =
  let g = G.create () in
  List.iter (fun n -> G.add_node g n ()) [ 1; 2; 3 ];
  G.add_edge g ~src:1 ~dst:2 ();
  G.add_edge g ~src:2 ~dst:3 ();
  G.add_edge g ~src:3 ~dst:1 ();
  g

(* Random DAG: edges only from lower to higher ids. *)
let random_dag rng n p =
  let g = G.create () in
  for i = 1 to n do
    G.add_node g i ()
  done;
  for i = 1 to n do
    for j = i + 1 to n do
      if Prng.bernoulli rng p then G.add_edge g ~src:i ~dst:j ()
    done
  done;
  g

(* --- BFS --- *)

let test_bfs_depths () =
  let g = diamond () in
  let r = Tr.bfs g ~roots:[ 1 ] in
  Alcotest.(check bool) "not truncated" false r.Tr.truncated;
  Alcotest.(check (list (pair int int))) "depths" [ (1, 0); (2, 1); (3, 1); (4, 2) ] r.Tr.visited

let test_bfs_backward () =
  let g = diamond () in
  let r = Tr.bfs ~direction:Tr.Backward g ~roots:[ 4 ] in
  Alcotest.(check (list (pair int int))) "ancestors with depth"
    [ (4, 0); (2, 1); (3, 1); (1, 2) ]
    r.Tr.visited

let test_bfs_both () =
  let g = chain 5 in
  let r = Tr.bfs ~direction:Tr.Both g ~roots:[ 3 ] in
  Alcotest.(check int) "reaches everything" 5 (List.length r.Tr.visited)

let test_bfs_max_depth () =
  let g = chain 10 in
  let r = Tr.bfs ~max_depth:3 g ~roots:[ 1 ] in
  Alcotest.(check int) "depth-limited" 4 (List.length r.Tr.visited);
  Alcotest.(check bool) "flagged truncated" true r.Tr.truncated

let test_bfs_budget () =
  let g = chain 100 in
  let r = Tr.bfs ~budget:10 g ~roots:[ 1 ] in
  Alcotest.(check bool) "budget truncates" true r.Tr.truncated;
  Alcotest.(check bool) "bounded visits" true (List.length r.Tr.visited <= 12)

let test_bfs_follow_filter () =
  let g = G.create () in
  List.iter (fun n -> G.add_node g n ()) [ 1; 2; 3 ];
  G.add_edge g ~src:1 ~dst:2 "keep";
  G.add_edge g ~src:1 ~dst:3 "skip";
  let r = Tr.bfs ~follow:(fun ~src:_ ~dst:_ e -> e = "keep") g ~roots:[ 1 ] in
  Alcotest.(check (list (pair int int))) "filtered" [ (1, 0); (2, 1) ] r.Tr.visited

let test_bfs_multiple_roots_and_unknown () =
  let g = diamond () in
  let r = Tr.bfs g ~roots:[ 2; 3; 99 ] in
  Alcotest.(check int) "union of reachability" 3 (List.length r.Tr.visited)

let test_ancestors () =
  let g = diamond () in
  let anc = Tr.ancestors g 4 in
  Alcotest.(check (list int)) "ancestors exclude self" [ 2; 3; 1 ]
    (List.map fst anc.Tr.visited)

(* --- first match --- *)

let test_first_match () =
  let g = chain 6 in
  (match (Tr.first_match ~direction:Tr.Backward g ~root:6 (fun n -> n <= 3)).Tr.visited with
  | Some { Tr.node; depth; path } ->
    Alcotest.(check int) "nearest match" 3 node;
    Alcotest.(check int) "its depth" 3 depth;
    Alcotest.(check (list int)) "path from the root back" [ 6; 5; 4; 3 ] path
  | None -> Alcotest.fail "no ancestor found");
  let none = Tr.first_match ~direction:Tr.Backward g ~root:3 (fun n -> n > 90) in
  Alcotest.(check bool) "no match is None" true (none.Tr.visited = None);
  Alcotest.(check int) "the walk ran dry" 3 none.Tr.expansions;
  Alcotest.(check bool) "the root is never tested" true
    ((Tr.first_match g ~root:1 (fun n -> n = 1)).Tr.visited = None)

let hit_opt = Alcotest.(option (triple int int (list int)))

let hit (o : Tr.hit option Tr.outcome) =
  Option.map (fun { Tr.node; depth; path } -> (node, depth, path)) o.Tr.visited

let test_first_match_paths () =
  let g = diamond () in
  Alcotest.(check hit_opt) "forward: the first branch reached" (Some (4, 2, [ 1; 2; 4 ]))
    (hit (Tr.first_match g ~root:1 (( = ) 4)));
  Alcotest.(check hit_opt) "backward: the path runs against the edges" (Some (1, 2, [ 4; 2; 1 ]))
    (hit (Tr.first_match ~direction:Tr.Backward g ~root:4 (( = ) 1)));
  Alcotest.(check hit_opt) "follow steers the path" (Some (4, 2, [ 1; 3; 4 ]))
    (hit (Tr.first_match ~follow:(fun ~src:_ ~dst _ -> dst <> 2) g ~root:1 (( = ) 4)));
  let g = cycle3 () in
  Alcotest.(check hit_opt) "a cycle: the simple path" (Some (3, 2, [ 1; 2; 3 ]))
    (hit (Tr.first_match g ~root:1 (( = ) 3)));
  (* Cycles must not make this diverge. *)
  let dry = Tr.first_match g ~root:1 (fun _ -> false) in
  Alcotest.(check int) "a cycle: each node expanded once" 3 dry.Tr.expansions;
  Alcotest.(check bool) "running dry is not truncation" false dry.Tr.truncated

let test_first_match_budget () =
  let g = chain 6 in
  let run budget = Tr.first_match ~direction:Tr.Backward ~budget g ~root:6 (fun n -> n <= 3) in
  List.iter
    (fun (budget, want, expansions, truncated) ->
      let o = run budget in
      let where = Printf.sprintf "budget %d" budget in
      Alcotest.(check hit_opt) (where ^ ": match") want (hit o);
      Alcotest.(check int) (where ^ ": expansions") expansions o.Tr.expansions;
      Alcotest.(check bool) (where ^ ": truncated") truncated o.Tr.truncated)
    [
      (0, None, 0, true);
      (2, None, 2, true);
      (* Expanding the third node reaches the match: the walk stops there. *)
      (3, Some (3, 3, [ 6; 5; 4; 3 ]), 3, false);
      (10, Some (3, 3, [ 6; 5; 4; 3 ]), 3, false);
    ]

let test_ancestors_follow () =
  let g = diamond () in
  let anc = Tr.ancestors ~follow:(fun ~src:_ ~dst _ -> dst <> 2) g 4 in
  Alcotest.(check (list (pair int int))) "the filtered branch is not walked"
    [ (3, 1); (1, 2) ]
    anc.Tr.visited

(* --- cycles / topo --- *)

let test_cycle_detection () =
  Alcotest.(check bool) "chain acyclic" false (C.has_cycle (chain 5));
  Alcotest.(check bool) "diamond acyclic" false (C.has_cycle (diamond ()));
  Alcotest.(check bool) "cycle detected" true (C.has_cycle (cycle3 ()))

let test_find_cycle_witness () =
  match C.find_cycle (cycle3 ()) with
  | Some witness ->
    Alcotest.(check int) "cycle length" 3 (List.length (List.sort_uniq Int.compare witness))
  | None -> Alcotest.fail "cycle not found"

let test_self_loop_cycle () =
  let g = G.create () in
  G.add_node g 1 ();
  G.add_edge g ~src:1 ~dst:1 ();
  Alcotest.(check bool) "self loop is a cycle" true (C.has_cycle g)

(* --- HITS / PageRank --- *)

module Sub = Provgraph.Subgraph

let induced ids g = Sub.induce g ~follow:(fun ~src:_ ~dst:_ _ -> true) ids
let whole g = induced (G.nodes g) g
let score sub scores id = scores.(Sub.local sub id)

(* The [n] best-scoring node ids, ascending. *)
let best sub scores n =
  let by_score a b = Float.compare (score sub scores b) (score sub scores a) in
  let ids = List.sort by_score (Array.to_list sub.Sub.members) in
  List.sort Int.compare (List.filteri (fun i _ -> i < n) ids)

let test_hits_hub_authority () =
  (* 1 and 2 point at 3 and 4; 3,4 are authorities, 1,2 hubs. *)
  let g = G.create () in
  List.iter (fun n -> G.add_node g n ()) [ 1; 2; 3; 4 ];
  List.iter
    (fun (s, d) -> G.add_edge g ~src:s ~dst:d ())
    [ (1, 3); (1, 4); (2, 3); (2, 4) ];
  let sub = whole g in
  let scores = Provgraph.Hits.run sub in
  Alcotest.(check (list int)) "authorities" [ 3; 4 ] (best sub scores.Provgraph.Hits.authority 2);
  Alcotest.(check (list int)) "hubs" [ 1; 2 ] (best sub scores.Provgraph.Hits.hub 2)

let test_hits_subset () =
  let scores = Provgraph.Hits.run (induced [ 1; 2 ] (diamond ())) in
  Alcotest.(check int) "only subset scored" 2 (Array.length scores.Provgraph.Hits.hub)

let test_empty_subgraph () =
  let sub = induced [ 99; -1 ] (diamond ()) in
  Alcotest.(check int) "no members" 0 (Sub.size sub);
  let pr = Provgraph.Pagerank.run ~personalization:[ (99, 1.0) ] sub in
  Alcotest.(check int) "no ranks" 0 (Array.length pr);
  let scores = Provgraph.Hits.run sub in
  Alcotest.(check (pair int int)) "no hub or authority scores" (0, 0)
    (Array.length scores.Provgraph.Hits.hub, Array.length scores.Provgraph.Hits.authority)

let test_pagerank_sums_to_one () =
  let rng = Prng.create 3 in
  let pr = Provgraph.Pagerank.run (whole (random_dag rng 30 0.1)) in
  let total = Array.fold_left ( +. ) 0.0 pr in
  if Float.abs (total -. 1.0) > 1e-6 then Alcotest.failf "mass %f" total

let test_pagerank_sink_attracts () =
  let sub = whole (chain 3) in
  let pr = Provgraph.Pagerank.run sub in
  Alcotest.(check bool) "downstream outranks upstream" true (score sub pr 3 > score sub pr 1)

let test_personalized_pagerank () =
  let sub = whole (diamond ()) in
  let pr = Provgraph.Pagerank.run ~personalization:[ (2, 1.0) ] sub in
  Alcotest.(check bool) "restart node favored over sibling" true (score sub pr 2 > score sub pr 3)

let test_pagerank_non_member_restart () =
  let sub = induced [ 1; 2; 4 ] (diamond ()) in
  let bits pr = Array.to_list (Array.map Int64.bits_of_float pr) in
  Alcotest.(check (list int64)) "uniform restart"
    (bits (Provgraph.Pagerank.run sub))
    (bits (Provgraph.Pagerank.run ~personalization:[ (3, 1.0); (99, 2.0); (-1, 1.0) ] sub))

module CS = Core.Contextual_search

let test_rankers_without_text_hits () =
  let web, engine, api = Core_fixtures.make ~seed:25 () in
  let tab = Browser.Engine.open_tab engine ~time:10 () in
  ignore (Browser.Engine.visit_typed engine ~time:20 ~tab (Core_fixtures.article web));
  let index = Core.Api.text_index api in
  List.iter
    (fun (name, (resp : CS.response)) ->
      Alcotest.(check int) (name ^ ": no results") 0 (List.length resp.CS.results);
      Alcotest.(check bool) (name ^ ": not truncated") false resp.CS.truncated)
    [
      ("pagerank", CS.search_pagerank index "qqzzxv");
      ("hits", CS.search_hits index "qqzzxv");
    ]

(* --- neighborhood --- *)

let test_neighborhood_decay () =
  let g = chain 4 in
  let config =
    { Provgraph.Neighborhood.default_config with Provgraph.Neighborhood.max_hops = 3; decay = 0.5 }
  in
  Provgraph.Neighborhood.expand ~config g ~seeds:[ (1, 1.0) ] @@ fun e ->
  Alcotest.(check bool) "not truncated" false e.Provgraph.Neighborhood.truncated;
  let get = Provgraph.Neighborhood.score e in
  Alcotest.(check (list int)) "first-reach order" [ 1; 2; 3; 4 ]
    (List.init e.Provgraph.Neighborhood.reached.Provkit_util.Scratch.count (fun i ->
         e.Provgraph.Neighborhood.reached.Provkit_util.Scratch.ids.(i)));
  Alcotest.(check (float 1e-9)) "seed" 1.0 (get 1);
  Alcotest.(check (float 1e-9)) "hop 1" 0.5 (get 2);
  Alcotest.(check (float 1e-9)) "hop 2" 0.25 (get 3);
  Alcotest.(check (float 1e-9)) "hop 3" 0.125 (get 4);
  Alcotest.(check (float 0.0)) "unreached" 0.0 (get 0)

let test_neighborhood_additive_seeds () =
  let g = chain 3 in
  let config =
    { Provgraph.Neighborhood.default_config with Provgraph.Neighborhood.max_hops = 2; decay = 0.5 }
  in
  Provgraph.Neighborhood.expand ~config g ~seeds:[ (1, 1.0); (3, 1.0) ] @@ fun e ->
  (* node 2 receives 0.5 from each side *)
  Alcotest.(check (float 1e-9)) "mass adds" 1.0 (Provgraph.Neighborhood.score e 2)

(* --- properties on random DAGs --- *)

let dag_gen =
  QCheck.Gen.(
    map2
      (fun seed n -> (seed, 2 + n))
      int (int_bound 28))

let prop_random_dag_acyclic =
  QCheck.Test.make ~name:"random DAGs are acyclic" ~count:60 (QCheck.make dag_gen)
    (fun (seed, n) ->
      let rng = Prng.create seed in
      not (C.has_cycle (random_dag rng n 0.15)))

(* The oracle is the reference model's own breadth-first search for
   each node, over a list-and-Hashtbl copy of the graph. *)
let prop_bfs_depth_is_shortest =
  QCheck.Test.make ~name:"BFS depth equals shortest-path distance" ~count:40
    (QCheck.make dag_gen) (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = random_dag rng n 0.2 in
      let m = Graph_model.Digraph.create () in
      G.iter_nodes g (fun id () -> Graph_model.Digraph.add_node m id ());
      G.iter_edges g (fun src dst () -> Graph_model.Digraph.add_edge m ~src ~dst ());
      let distance node =
        if node = 1 then Some 0
        else
          match Graph_model.first_match ~direction:Tr.Forward m ~start:1 (( = ) node) with
          | Some (_, d, _), _, _ -> Some d
          | None, _, _ -> None
      in
      let r = Tr.bfs g ~roots:[ 1 ] in
      List.for_all (fun (node, depth) -> distance node = Some depth) r.Tr.visited)

let suite =
  [
    Alcotest.test_case "bfs depths" `Quick test_bfs_depths;
    Alcotest.test_case "bfs backward" `Quick test_bfs_backward;
    Alcotest.test_case "bfs both" `Quick test_bfs_both;
    Alcotest.test_case "bfs max depth" `Quick test_bfs_max_depth;
    Alcotest.test_case "bfs budget" `Quick test_bfs_budget;
    Alcotest.test_case "bfs follow filter" `Quick test_bfs_follow_filter;
    Alcotest.test_case "bfs multi-root" `Quick test_bfs_multiple_roots_and_unknown;
    Alcotest.test_case "ancestors" `Quick test_ancestors;
    Alcotest.test_case "first match" `Quick test_first_match;
    Alcotest.test_case "first match paths" `Quick test_first_match_paths;
    Alcotest.test_case "first match budget" `Quick test_first_match_budget;
    Alcotest.test_case "ancestors follow filter" `Quick test_ancestors_follow;
    Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
    Alcotest.test_case "cycle witness" `Quick test_find_cycle_witness;
    Alcotest.test_case "self loop" `Quick test_self_loop_cycle;
    Alcotest.test_case "HITS hubs/authorities" `Quick test_hits_hub_authority;
    Alcotest.test_case "HITS subset" `Quick test_hits_subset;
    Alcotest.test_case "empty subgraph" `Quick test_empty_subgraph;
    Alcotest.test_case "pagerank mass" `Quick test_pagerank_sums_to_one;
    Alcotest.test_case "pagerank sink" `Quick test_pagerank_sink_attracts;
    Alcotest.test_case "personalized pagerank" `Quick test_personalized_pagerank;
    Alcotest.test_case "pagerank restart at non-members" `Quick test_pagerank_non_member_restart;
    Alcotest.test_case "rankers without text hits" `Quick test_rankers_without_text_hits;
    Alcotest.test_case "neighborhood decay" `Quick test_neighborhood_decay;
    Alcotest.test_case "neighborhood additive" `Quick test_neighborhood_additive_seeds;
    QCheck_alcotest.to_alcotest prop_random_dag_acyclic;
    QCheck_alcotest.to_alcotest prop_bfs_depth_is_shortest;
  ]
