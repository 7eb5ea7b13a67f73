(* The id-indexed Digraph and the stamped walks against the reference
   models in Graph_model, over PROV_TEST_SEED-seeded random op
   sequences.

   Graph: after every add_node (fresh or replacing a payload) and
   add_edge (multi-edges and self-loops included), every adjacency view,
   degree, enumeration and count must equal the model's, with the
   enumeration orders the interface promises (ascending ids, out-edges
   oldest first).

   Every edge carries a random tag, 0 and 15 among them, and every walk
   takes a random tag mask; the models take the same filter as a
   closure over the edge's label, as the walks did before they read
   packed tags.

   Walks: Neighborhood.expand, with and without degree normalization,
   a mask and a truncating node budget, must return the model's score
   table bit for bit, the order the model first scored its nodes in,
   and its truncated flag; Traversal.bfs in every direction, with budgets
   none/0/1/4 and a max depth, must return the model's visit list,
   expansions and truncated flag.  Walks alternate between two graphs,
   and one of them grows between walks, so a scratch reused with stale
   stamps or a stale size shows.

   Traversal.first_match must find what lineage's hand-rolled search
   found (node, distance, path, truncation, expansions) and ask the
   recognizer about the same nodes in the same order.

   Cycle.find_cycle under a mask must return the closure-filtered
   depth-first search's witness.

   E12: Subgraph.induce over random ids and masks must hold the model
   sub-Digraph's members and, for each member, its out- and in-edges
   in the same order; Pagerank.run must equal the Hashtbl PageRank bit
   for bit under uniform, personalized, all-zero and non-member
   restarts, and Hits.run the Hashtbl HITS within 1e-12 relative error
   (its L2 norms are summed in another order). *)

module G = Provgraph.Digraph
module M = Graph_model.Digraph
module Nb = Provgraph.Neighborhood
module Tr = Provgraph.Traversal
module Prng = Provkit_util.Prng

(* A graph and its model, fed the same ops.  Labels are distinct per
   edge so orders are visible; a label's low 4 bits are its edge's
   tag. *)
type pair = { g : (string, int) G.t; m : (string, int) M.t; mutable next_label : int; ids : int }

let tag_of label = label land 15

let pair ids =
  { g = G.create ~initial_capacity:4 ~tag:tag_of (); m = M.create (); next_label = 0; ids }

let add_node p id payload =
  G.add_node p.g id payload;
  M.add_node p.m id payload

let add_edge p ~src ~dst ~tag =
  let l = (p.next_label lsl 4) lor tag in
  p.next_label <- p.next_label + 1;
  G.add_edge p.g ~src ~dst l;
  M.add_edge p.m ~src ~dst l

(* Any tag, the extremes 0 and 15 more often. *)
let random_tag rng = Prng.pick rng [| 0; 15; Prng.int rng 16 |]

(* One random op: mostly edges between present nodes (often repeating a
   recent pair), sometimes a node that is new or replaces a payload. *)
let random_op rng p =
  let present = M.nodes p.m in
  if present = [] || Prng.int rng 4 = 0 then begin
    let id = Prng.int rng p.ids in
    add_node p id (Printf.sprintf "n%d.%d" id (Prng.int rng 1000));
    Printf.sprintf "add_node %d" id
  end
  else begin
    let a = Array.of_list present in
    let src = Prng.pick rng a and dst = Prng.pick rng a in
    let times = if Prng.int rng 5 = 0 then 2 else 1 in
    for _ = 1 to times do add_edge p ~src ~dst ~tag:(random_tag rng) done;
    Printf.sprintf "add_edge %d->%d x%d" src dst times
  end

(* A node's packed edges in one direction as (other endpoint, tag),
   each tag read back as the one single-tag mask that admits it. *)
let packed adj degree g id =
  let a = adj g id in
  let tag e = List.filter (fun t -> G.admits (1 lsl t) e) (List.init 16 Fun.id) in
  List.init (degree g id) (fun i ->
      match tag a.(i) with
      | [ t ] -> (G.other a.(i), t)
      | _ -> Alcotest.failf "packed edge %x: not exactly one tag" a.(i))

let edges = Alcotest.(list (pair int int))

let check_graph ~where p =
  let g = p.g and m = p.m in
  let at what id = Printf.sprintf "%s: %s %d" where what id in
  Alcotest.(check int) (where ^ ": node_count") (M.node_count m) (G.node_count g);
  Alcotest.(check int) (where ^ ": edge_count") (M.edge_count m) (G.edge_count g);
  Alcotest.(check (list int)) (where ^ ": nodes") (M.nodes m) (G.nodes g);
  let iterated = ref [] in
  G.iter_nodes g (fun id n -> iterated := (id, n) :: !iterated);
  Alcotest.(check (list (pair int string)))
    (where ^ ": iter_nodes ascending")
    (List.map (fun id -> (id, Option.get (M.node_opt m id))) (M.nodes m))
    (List.rev !iterated);
  Alcotest.(check (list (pair int string)))
    (where ^ ": fold_nodes")
    (List.rev !iterated)
    (List.rev (G.fold_nodes g ~init:[] ~f:(fun acc id n -> (id, n) :: acc)));
  let model_edges =
    List.concat_map (fun src -> List.map (fun (dst, e) -> (src, dst, e)) (M.out_edges m src)) (M.nodes m)
  in
  let walked = ref [] in
  G.iter_edges g (fun s d e -> walked := (s, d, e) :: !walked);
  Alcotest.(check (list (triple int int int)))
    (where ^ ": iter_edges by source, oldest first")
    model_edges (List.rev !walked);
  Alcotest.(check (list (triple int int int)))
    (where ^ ": fold_edges")
    model_edges
    (List.rev (G.fold_edges g ~init:[] ~f:(fun acc s d e -> (s, d, e) :: acc)));
  (* Every id the ops may use, a negative one and one past the bound. *)
  for id = -1 to p.ids do
    Alcotest.(check bool) (at "mem_node" id) (M.mem_node m id) (G.mem_node g id);
    Alcotest.(check (option string)) (at "node_opt" id) (M.node_opt m id) (G.node_opt g id);
    let out = M.out_edges m id and inc = M.in_edges m id in
    Alcotest.check edges (at "out_edges" id) out (G.out_edges g id);
    Alcotest.check edges (at "in_edges" id) inc (G.in_edges g id);
    Alcotest.check edges (at "packed out-edges" id)
      (List.map (fun (dst, e) -> (dst, tag_of e)) out)
      (packed G.out_adj G.out_degree g id);
    Alcotest.check edges (at "packed in-edges" id)
      (List.map (fun (src, e) -> (src, tag_of e)) inc)
      (packed G.in_adj G.in_degree g id)
  done;
  Alcotest.(check bool) (where ^ ": bound covers every node") true
    (List.for_all (fun id -> id < G.bound g) (M.nodes m))

let test_ops_against_model () =
  let rng = Test_seed.prng ~salt:0x6a0d in
  for round = 1 to 20 do
    let p = pair (2 + Prng.int rng 30) in
    for step = 1 to 60 do
      let op = random_op rng p in
      check_graph ~where:(Printf.sprintf "round %d step %d (%s)" round step op) p
    done
  done

let test_contract_errors () =
  let g = G.create () in
  Alcotest.check_raises "negative id" (Invalid_argument "Digraph.add_node: negative id")
    (fun () -> G.add_node g (-1) ());
  G.add_node g 0 ();
  G.add_node g 7 ();
  Alcotest.(check int) "bound" 8 (G.bound g);
  Alcotest.(check (list int)) "sparse ids" [ 0; 7 ] (G.nodes g);
  Alcotest.check_raises "absent dst below the bound"
    (Invalid_argument "Digraph.add_edge: unknown dst") (fun () -> G.add_edge g ~src:0 ~dst:3 ());
  Alcotest.check_raises "dst past the bound" (Invalid_argument "Digraph.add_edge: unknown dst")
    (fun () -> G.add_edge g ~src:0 ~dst:8 ());
  Alcotest.check_raises "node past the bound" Not_found (fun () -> G.node g 100)

(* --- walks --- *)

(* A score table's entries by ascending id, each score as its bits. *)
let bindings tbl =
  List.sort compare (Hashtbl.fold (fun id v acc -> (id, Int64.bits_of_float v) :: acc) tbl [])

(* An expansion's scores as [bindings] lists a table's. *)
let expansion_bindings (e : Nb.expansion) =
  let r = e.Nb.reached in
  List.sort compare
    (List.init r.Provkit_util.Scratch.count (fun i ->
         let id = r.Provkit_util.Scratch.ids.(i) in
         (id, Int64.bits_of_float e.Nb.scores.(id))))

let random_expand_config rng =
  {
    Nb.decay = Prng.pick rng [| 0.5; 0.3; 1.0 |];
    max_hops = Prng.int rng 4;
    node_budget = Prng.pick rng [| None; None; Some 0; Some 1; Some 3; Some 7 |];
    degree_normalize = Prng.bool rng;
  }

let print_config (c : Nb.config) =
  Printf.sprintf "hops %d, %s, budget %s, decay %g" c.Nb.max_hops
    (if c.Nb.degree_normalize then "normalized" else "hop decay")
    (match c.Nb.node_budget with None -> "none" | Some b -> string_of_int b)
    c.Nb.decay

(* A mask for the walk, with its description and the closure filter
   the models take for it: every tag, none, one tag, all but one, or
   any set of tags. *)
let random_mask rng =
  let t = Prng.int rng 16 in
  let mask =
    match Prng.int rng 6 with
    | 0 -> G.all_tags
    | 1 -> 0
    | 2 -> 1 lsl t
    | 3 -> G.all_tags lxor (1 lsl t)
    | _ -> Prng.int rng (G.all_tags + 1)
  in
  (mask, Printf.sprintf "mask %04x" mask, fun ~src:_ ~dst:_ e -> mask land (1 lsl tag_of e) <> 0)

let random_seeds rng p =
  List.init (Prng.int rng 5) (fun _ ->
      (Prng.int rng (p.ids + 2) - 1, Prng.pick rng [| 1.0; 0.5; 2.25; 0.0; -1.0 |]))

let check_expand ~where rng p =
  let config = random_expand_config rng and mask, shown, follow = random_mask rng in
  let seeds = random_seeds rng p in
  let order = ref [] in
  let want, want_trunc =
    Graph_model.expand ~config ~follow ~reached:(fun id -> order := id :: !order) p.m ~seeds
  in
  let got, got_trunc, got_order =
    Nb.expand ~config ~mask p.g ~seeds (fun e ->
        let r = e.Nb.reached in
        ( expansion_bindings e,
          e.Nb.truncated,
          List.init r.Provkit_util.Scratch.count (fun i -> r.Provkit_util.Scratch.ids.(i)) ))
  in
  let where =
    Printf.sprintf "%s: expand [%s, %s] from %s" where (print_config config) shown
      (String.concat " " (List.map (fun (s, v) -> Printf.sprintf "%d:%g" s v) seeds))
  in
  Alcotest.(check bool) (where ^ ": truncated") want_trunc got_trunc;
  Alcotest.(check (list int)) (where ^ ": first-reach order") (List.rev !order) got_order;
  Alcotest.(check (list (pair int int64)))
    (where ^ ": scores, bit for bit")
    (bindings want) got

let check_bfs ~where rng p =
  let direction = Prng.pick rng [| Tr.Forward; Tr.Backward; Tr.Both |] in
  let max_depth = Prng.pick rng [| None; Some 0; Some 1; Some 2 |] in
  let budget = Prng.pick rng [| None; Some 0; Some 1; Some 4 |] in
  let mask, shown, follow = random_mask rng in
  let roots = List.init (Prng.int rng 4) (fun _ -> Prng.int rng (p.ids + 2) - 1) in
  let want = Graph_model.bfs ~direction ?max_depth ?budget ~follow p.m ~roots in
  let got = Tr.bfs ~direction ?max_depth ?budget ~mask p.g ~roots in
  let where =
    Printf.sprintf "%s: bfs from [%s], %s" where (String.concat " " (List.map string_of_int roots)) shown
  in
  Alcotest.(check bool) (where ^ ": truncated") want.Tr.truncated got.Tr.truncated;
  Alcotest.(check int) (where ^ ": expansions") want.Tr.expansions got.Tr.expansions;
  Alcotest.(check (list (pair int int))) (where ^ ": visited") want.Tr.visited got.Tr.visited

(* Accepts a random quarter of the ids (absent ones included). *)
let random_recognizer rng p =
  let accepted = Array.init (p.ids + 2) (fun _ -> Prng.int rng 4 = 0) in
  fun id -> accepted.(id + 1)

(* [recognize] wrapped to log the ids it is asked about. *)
let logged recognize =
  let asked = ref [] in
  ((fun id -> asked := id :: !asked; recognize id), fun () -> List.rev !asked)

let check_first_match ~where rng p =
  let direction = Prng.pick rng [| Tr.Backward; Tr.Backward; Tr.Forward; Tr.Both |] in
  let budget = Prng.pick rng [| None; None; Some 0; Some 1; Some 4 |] in
  let mask, shown, follow = random_mask rng in
  let recognize = random_recognizer rng p in
  (* Now and then an id that is not in the graph, or not even an id. *)
  let start = Prng.int rng (p.ids + 2) - 1 in
  let model_recognize, model_asked = logged recognize in
  let want, want_trunc, want_exp =
    Graph_model.first_match ~direction ?budget ~follow p.m ~start model_recognize
  in
  let walk_recognize, walk_asked = logged recognize in
  let got = Tr.first_match ~direction ?budget ~mask p.g ~root:start walk_recognize in
  let where =
    Printf.sprintf "%s: first_match from %d, budget %s, %s" where start
      (match budget with None -> "none" | Some b -> string_of_int b)
      shown
  in
  Alcotest.(check (option (triple int int (list int))))
    (where ^ ": match")
    want
    (Option.map (fun { Tr.node; depth; path } -> (node, depth, path)) got.Tr.visited);
  Alcotest.(check (list int)) (where ^ ": recognizer calls") (model_asked ()) (walk_asked ());
  if M.mem_node p.m start then begin
    Alcotest.(check bool) (where ^ ": truncated") want_trunc got.Tr.truncated;
    Alcotest.(check int) (where ^ ": expansions") want_exp got.Tr.expansions
  end
  else
    (* The model expands an absent start (it has no edges); the walk
       ignores an unknown root, as bfs does. *)
    Alcotest.(check int) (where ^ ": an absent root expands nothing") 0 got.Tr.expansions

let grow rng p n =
  for _ = 1 to n do ignore (random_op rng p) done

(* Two graphs of different sizes; walks alternate at random between
   them, and the first keeps growing (new, larger ids included) between
   walks. *)
let walks_against_model ~salt check () =
  let rng = Test_seed.prng ~salt in
  for round = 1 to 30 do
    let a = pair (5 + Prng.int rng 40) and b = pair (2 + Prng.int rng 10) in
    grow rng a 40;
    grow rng b 15;
    for step = 1 to 25 do
      let p, name = if Prng.bool rng then (a, "graph a") else (b, "graph b") in
      let where = Printf.sprintf "round %d step %d, %s" round step name in
      check ~where rng p;
      if Prng.int rng 3 = 0 then grow rng a (1 + Prng.int rng 6)
    done
  done

let test_walks_against_model =
  walks_against_model ~salt:0x3a1c (fun ~where rng p ->
      if Prng.bool rng then check_expand ~where rng p else check_bfs ~where rng p)

let test_first_match_against_model = walks_against_model ~salt:0x11e4 check_first_match

(* A walk started from inside another walk's callback (first_match's
   predicate, an expansion's continuation) must neither disturb the
   outer walk nor be disturbed by it. *)
let test_nested_walk () =
  let rng = Test_seed.prng ~salt:0x7e57 in
  let p = pair 20 in
  grow rng p 80;
  let config = { Nb.default_config with Nb.max_hops = 3 } in
  let root = List.hd (M.nodes p.m) in
  let seeds = [ (root, 1.0) ] in
  let want, _ = Graph_model.expand ~config p.m ~seeds in
  let inner = ref [] in
  let recognize id =
    inner := (id, Nb.expand ~config p.g ~seeds:[ (id, 1.0) ] expansion_bindings) :: !inner;
    false
  in
  let outer = Tr.first_match ~direction:Tr.Both p.g ~root recognize in
  let order = List.map fst (Graph_model.bfs ~direction:Tr.Both p.m ~roots:[ root ]).Tr.visited in
  Alcotest.(check (list int)) "outer walk asks in BFS order" (List.tl order) (List.rev_map fst !inner);
  Alcotest.(check int) "outer expansions" (List.length order) outer.Tr.expansions;
  Alcotest.(check bool) "outer walk ran dry" true (outer.Tr.visited = None);
  List.iter
    (fun (id, got) ->
      let want, _ = Graph_model.expand ~config p.m ~seeds:[ (id, 1.0) ] in
      Alcotest.(check (list (pair int int64))) (Printf.sprintf "inner expansion from %d" id)
        (bindings want) got)
    !inner;
  let got =
    Nb.expand ~config p.g ~seeds (fun e ->
        let visited = (Tr.bfs ~direction:Tr.Both p.g ~roots:[ root ]).Tr.visited in
        Alcotest.(check (list (pair int int)))
          "a walk inside the continuation"
          (Graph_model.bfs ~direction:Tr.Both p.m ~roots:[ root ]).Tr.visited visited;
        expansion_bindings e)
  in
  Alcotest.(check (list (pair int int64))) "outer scores" (bindings want) got

(* --- E12's induced subgraph and rankers --- *)

module Sub = Provgraph.Subgraph
module Rank = Graph_model.Rank

(* A subgraph of random ids (absent, negative, past the graph and
   repeated ones among them) under a random mask, and the sub-Digraph
   the model builds from the same members under its closure. *)
let random_induced rng p =
  let ids = List.init (Prng.int rng (p.ids + 3)) (fun _ -> Prng.int rng (p.ids + 2) - 1) in
  let mask, shown, follow = random_mask rng in
  let members = List.sort_uniq Int.compare (List.filter (G.mem_node p.g) ids) in
  (Sub.induce ~mask p.g ids, Rank.sub_digraph p.g ~follow members, ids, shown)

(* Local [i]'s edges in one compressed row, as node ids. *)
let row sub starts ends i =
  List.init (starts.(i + 1) - starts.(i)) (fun k -> sub.Sub.members.(ends.(starts.(i) + k)))

let check_induced ~where rng p =
  let sub, want, ids, shown = random_induced rng p in
  let where =
    Printf.sprintf "%s: induce [%s], %s" where (String.concat " " (List.map string_of_int ids)) shown
  in
  let members = G.nodes want in
  Alcotest.(check (list int)) (where ^ ": members") members (Array.to_list sub.Sub.members);
  Alcotest.(check int) (where ^ ": size") (G.node_count want) (Sub.size sub);
  Alcotest.(check int) (where ^ ": edges") (G.edge_count want) (Array.length sub.Sub.in_src);
  for id = -1 to p.ids do
    let rank = if G.mem_node want id then List.length (List.filter (( > ) id) members) else -1 in
    Alcotest.(check int) (Printf.sprintf "%s: local %d" where id) rank (Sub.local sub id)
  done;
  Array.iteri
    (fun i id ->
      Alcotest.(check (list int))
        (Printf.sprintf "%s: out-edges of %d" where id)
        (List.map fst (G.out_edges want id))
        (row sub sub.Sub.out_start sub.Sub.out_dst i);
      Alcotest.(check (list int))
        (Printf.sprintf "%s: in-edges of %d" where id)
        (List.map fst (G.in_edges want id))
        (row sub sub.Sub.in_start sub.Sub.in_src i))
    sub.Sub.members

let close a b = a = b || Float.abs (a -. b) <= 1e-12 *. Float.max (Float.abs a) (Float.abs b)

(* PageRank under every kind of restart, bit for bit, and HITS within
   1e-12 relative error.  Returns how many members are dangling. *)
let check_rankers ~where rng p =
  let sub, want, _, _ = random_induced rng p in
  let members = Array.to_list sub.Sub.members in
  let some_members = List.filter (fun _ -> Prng.bool rng) members in
  let restarts =
    [
      ("uniform", None);
      ("random seeds", Some (random_seeds rng p));
      ("personalized", Some (List.map (fun id -> (id, 0.5 +. float_of_int id)) some_members));
      ("all-zero weights", Some (List.map (fun id -> (id, 0.0)) members));
      ("seeds outside", Some [ (-1, 1.0); (p.ids, 2.0); (p.ids + 1, 0.5) ]);
    ]
  in
  List.iter
    (fun (name, personalization) ->
      let want = Rank.pagerank ?personalization want in
      let got = Provgraph.Pagerank.run ?personalization sub in
      let where = Printf.sprintf "%s: pagerank, %s" where name in
      Alcotest.(check int) (where ^ ": size") (Hashtbl.length want) (Array.length got);
      Array.iteri
        (fun i id ->
          Alcotest.(check int64)
            (Printf.sprintf "%s: rank of %d, bit for bit" where id)
            (Int64.bits_of_float (Hashtbl.find want id))
            (Int64.bits_of_float got.(i)))
        sub.Sub.members)
    restarts;
  let want = Rank.hits want and got = Provgraph.Hits.run sub in
  let check what tbl scores =
    Array.iteri
      (fun i id ->
        let a = Hashtbl.find tbl id in
        if not (close a scores.(i)) then
          Alcotest.failf "%s: hits %s of %d: %h against %h" where what id scores.(i) a)
      sub.Sub.members
  in
  check "hub" want.Rank.hub got.Provgraph.Hits.hub;
  check "authority" want.Rank.authority got.Provgraph.Hits.authority;
  let dangling = ref 0 in
  for i = 0 to Sub.size sub - 1 do
    if sub.Sub.out_start.(i + 1) = sub.Sub.out_start.(i) then incr dangling
  done;
  !dangling

let test_induced_against_model = walks_against_model ~salt:0x5b6a check_induced

(* --- cycles --- *)

let check_cycle ~where rng p =
  let mask, shown, follow = random_mask rng in
  let want = Graph_model.find_cycle ~follow p.m in
  let where = Printf.sprintf "%s: find_cycle, %s" where shown in
  Alcotest.(check (option (list int))) (where ^ ": witness") want (Provgraph.Cycle.find_cycle ~mask p.g);
  Alcotest.(check bool) (where ^ ": has_cycle") (want <> None) (Provgraph.Cycle.has_cycle ~mask p.g);
  want = None

let test_cycles_against_model () =
  let acyclic = ref 0 and cyclic = ref 0 in
  walks_against_model ~salt:0xc1c1
    (fun ~where rng p -> incr (if check_cycle ~where rng p then acyclic else cyclic))
    ();
  Alcotest.(check bool) "some masks left a DAG, some a cycle" true (!acyclic > 0 && !cyclic > 0)

let test_rankers_against_model () =
  let dangling = ref 0 in
  walks_against_model ~salt:0x9a6e
    (fun ~where rng p -> dangling := !dangling + check_rankers ~where rng p)
    ();
  Alcotest.(check bool) "some subgraphs had dangling members" true (!dangling > 0)

let suite =
  [
    Alcotest.test_case "random ops: every view equals the model" `Quick test_ops_against_model;
    Alcotest.test_case "negative ids and absent endpoints" `Quick test_contract_errors;
    Alcotest.test_case "expand and bfs equal the models" `Quick test_walks_against_model;
    Alcotest.test_case "first_match equals lineage's search" `Quick
      test_first_match_against_model;
    Alcotest.test_case "a walk inside a walk's callback" `Quick test_nested_walk;
    Alcotest.test_case "induced subgraph equals the sub-Digraph" `Quick
      test_induced_against_model;
    Alcotest.test_case "find_cycle under a mask equals the filtered DFS" `Quick
      test_cycles_against_model;
    Alcotest.test_case "PageRank and HITS equal the Hashtbl rankers" `Quick
      test_rankers_against_model;
  ]
