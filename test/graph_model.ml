(* Reference models for the graph layer: the list-and-Hashtbl
   [Digraph] and the Hashtbl-based [Neighborhood.expand] and
   [Traversal.bfs] that the id-indexed arrays replaced, and the
   hand-rolled breadth-first search [Lineage.first_recognizable] ran
   before it moved onto [Traversal.first_match], and in [Rank] E12's
   Hashtbl PageRank and HITS over a sub-Digraph.  They are kept as
   written then, so the properties in Test_graph_model can compare the
   arrays against the structure whose orders and float sums the §2
   answers were first pinned with.  Enumerations here follow hash
   buckets; the tests sort where the real graph's order is ascending
   ids. *)

module Digraph = struct
  type ('n, 'e) t = {
    payload : (int, 'n) Hashtbl.t;
    out_adj : (int, (int * 'e) list ref) Hashtbl.t;  (* stored reversed *)
    in_adj : (int, (int * 'e) list ref) Hashtbl.t;
    mutable edges : int;
  }

  let create () =
    { payload = Hashtbl.create 16; out_adj = Hashtbl.create 16; in_adj = Hashtbl.create 16; edges = 0 }

  let mem_node t id = Hashtbl.mem t.payload id
  let node_opt t id = Hashtbl.find_opt t.payload id
  let add_node t id payload = Hashtbl.replace t.payload id payload

  let adj tbl id =
    match Hashtbl.find_opt tbl id with
    | Some cell -> cell
    | None ->
      let cell = ref [] in
      Hashtbl.replace tbl id cell;
      cell

  let add_edge t ~src ~dst label =
    if not (mem_node t src) then invalid_arg "Digraph.add_edge: unknown src";
    if not (mem_node t dst) then invalid_arg "Digraph.add_edge: unknown dst";
    let out = adj t.out_adj src in
    out := (dst, label) :: !out;
    let inc = adj t.in_adj dst in
    inc := (src, label) :: !inc;
    t.edges <- t.edges + 1

  let edge_list tbl id =
    match Hashtbl.find_opt tbl id with None -> [] | Some cell -> List.rev !cell

  let out_edges t id = edge_list t.out_adj id
  let in_edges t id = edge_list t.in_adj id

  let node_count t = Hashtbl.length t.payload
  let edge_count t = t.edges
  let nodes t = List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.payload [])

  (* A real graph's model: the same nodes, and each node's out- and
     in-edges in the same order. *)
  let of_digraph g =
    let t = create () in
    let append tbl id edge =
      let cell = adj tbl id in
      cell := edge :: !cell
    in
    Provgraph.Digraph.iter_nodes g (fun id n -> add_node t id n);
    Provgraph.Digraph.iter_nodes g (fun id _ ->
        Provgraph.Digraph.iter_out g id (fun dst e -> append t.out_adj id (dst, e));
        Provgraph.Digraph.iter_in g id (fun src e -> append t.in_adj id (src, e)));
    t.edges <- Provgraph.Digraph.edge_count g;
    t
end

type direction = Provgraph.Traversal.direction = Forward | Backward | Both

let neighbors direction g id =
  match direction with
  | Forward -> Digraph.out_edges g id
  | Backward -> Digraph.in_edges g id
  | Both -> Digraph.out_edges g id @ Digraph.in_edges g id

let expand ~(config : Provgraph.Neighborhood.config) ?follow g ~seeds =
  let scores = Hashtbl.create 128 in
  let bump id v =
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt scores id) in
    Hashtbl.replace scores id (prev +. v)
  in
  let keep src dst e = match follow with None -> true | Some f -> f ~src ~dst e in
  let truncated = ref false in
  let expansions = ref 0 in
  let budget_ok () =
    match config.node_budget with
    | None -> true
    | Some b -> if !expansions >= b then (truncated := true; false) else true
  in
  List.iter
    (fun (seed, seed_score) ->
      if Digraph.mem_node g seed && seed_score > 0.0 then begin
        bump seed seed_score;
        let depth = Hashtbl.create 32 in
        let received = Hashtbl.create 32 in
        Hashtbl.replace depth seed 0;
        Hashtbl.replace received seed seed_score;
        let queue = Queue.create () in
        Queue.push seed queue;
        let continue = ref true in
        while !continue && not (Queue.is_empty queue) do
          if not (budget_ok ()) then continue := false
          else begin
            let current = Queue.pop queue in
            incr expansions;
            let d = Hashtbl.find depth current in
            if d < config.max_hops then begin
              let nbrs =
                List.filter
                  (fun (next, e) -> keep current next e)
                  (neighbors Both g current)
              in
              let fanout = float_of_int (max 1 (List.length nbrs)) in
              List.iter
                (fun (next, _) ->
                  if not (Hashtbl.mem depth next) then begin
                    let hop = d + 1 in
                    Hashtbl.replace depth next hop;
                    let mass =
                      if config.degree_normalize then
                        Hashtbl.find received current *. config.decay /. fanout
                      else seed_score *. Float.pow config.decay (float_of_int hop)
                    in
                    Hashtbl.replace received next mass;
                    bump next mass;
                    Queue.push next queue
                  end)
                nbrs
            end
          end
        done
      end)
    seeds;
  (scores, !truncated)

let bfs ?(direction = Forward) ?max_depth ?budget ?follow g ~roots =
  let depth = Hashtbl.create 64 in
  let queue = Queue.create () in
  let order = ref [] in
  let truncated = ref false in
  let expansions = ref 0 in
  let within_budget () =
    match budget with
    | None -> true
    | Some b -> if !expansions >= b then (truncated := true; false) else true
  in
  let within_depth d =
    match max_depth with
    | None -> true
    | Some m -> if d >= m then (truncated := true; false) else true
  in
  List.iter
    (fun root ->
      if Digraph.mem_node g root && not (Hashtbl.mem depth root) then begin
        Hashtbl.replace depth root 0;
        Queue.push root queue;
        order := (root, 0) :: !order
      end)
    roots;
  let keep_edge src dst e = match follow with None -> true | Some f -> f ~src ~dst e in
  let continue = ref true in
  while !continue && not (Queue.is_empty queue) do
    if not (within_budget ()) then continue := false
    else begin
      let current = Queue.pop queue in
      incr expansions;
      let d = Hashtbl.find depth current in
      if within_depth d then
        List.iter
          (fun (next, e) ->
            if (not (Hashtbl.mem depth next)) && keep_edge current next e then begin
              Hashtbl.replace depth next (d + 1);
              Queue.push next queue;
              order := (next, d + 1) :: !order
            end)
          (neighbors direction g current)
    end
  done;
  { Provgraph.Traversal.visited = List.rev !order; expansions = !expansions; truncated = !truncated }

(* Lineage's search, with its direction, edge filter and node budget as
   parameters (it walked in-edges under [Lineage.causal_follow] and the
   query budget's remaining nodes).  The start node is never tested,
   and an absent one is expanded like any other.  Returns the match as
   (node, distance, path from [start]), the truncation flag and the
   number of expansions. *)
let first_match ~direction ?budget ?follow g ~start recognize =
  let keep src dst e = match follow with None -> true | Some f -> f ~src ~dst e in
  let depth = Hashtbl.create 64 in
  let parent = Hashtbl.create 64 in
  Hashtbl.replace depth start 0;
  let queue = Queue.create () in
  Queue.push start queue;
  let found = ref None in
  let truncated = ref false in
  let expansions = ref 0 in
  while !found = None && not (Queue.is_empty queue) do
    (match budget with
    | Some r when !expansions >= r ->
      truncated := true;
      Queue.clear queue
    | _ -> ());
    if not (Queue.is_empty queue) then begin
      let current = Queue.pop queue in
      incr expansions;
      let d = Hashtbl.find depth current in
      let parents =
        List.filter_map
          (fun (src, e) -> if keep current src e then Some src else None)
          (neighbors direction g current)
      in
      List.iter
        (fun ancestor ->
          if !found = None && not (Hashtbl.mem depth ancestor) then begin
            Hashtbl.replace depth ancestor (d + 1);
            Hashtbl.replace parent ancestor current;
            if recognize ancestor then found := Some (ancestor, d + 1)
            else Queue.push ancestor queue
          end)
        parents
    end
  done;
  let rec build acc v = if v = start then v :: acc else build (v :: acc) (Hashtbl.find parent v) in
  (Option.map (fun (node, distance) -> (node, distance, build [] node)) !found, !truncated, !expansions)

(* E12's rankers before they moved onto Provgraph.Subgraph: the
   focused subgraph as an id-indexed Digraph holding the members and
   their followed edges, source by ascending id, and PageRank and HITS
   over it in Hashtbls.  [sub_digraph] expects the members a
   breadth-first walk visits: distinct nodes of [graph]. *)
module Rank = struct
  module Digraph = Provgraph.Digraph

  let sub_digraph graph ~follow members =
    let members = List.sort Int.compare members in
    (* Sized once for the largest member id: growing by doubling would
       copy every id-indexed array on the way up. *)
    let sub = Digraph.create ~initial_capacity:(1 + List.fold_left max 0 members) () in
    List.iter (fun id -> Digraph.add_node sub id (Digraph.node graph id)) members;
    List.iter
      (fun src ->
        Digraph.iter_out graph src (fun dst e ->
            if Digraph.mem_node sub dst && follow ~src ~dst e then
              Digraph.add_edge sub ~src ~dst e))
      members;
    sub

  let pagerank ?(damping = 0.85) ?(iterations = 50) ?(epsilon = 1e-10) ?personalization g =
    let nodes = Digraph.nodes g in
    let n = List.length nodes in
    if n = 0 then Hashtbl.create 1
    else begin
      let restart = Hashtbl.create n in
      (match personalization with
      | None ->
        let u = 1.0 /. float_of_int n in
        List.iter (fun id -> Hashtbl.replace restart id u) nodes
      | Some weights ->
        let valid = List.filter (fun (id, w) -> Digraph.mem_node g id && w > 0.0) weights in
        let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 valid in
        if total <= 0.0 then begin
          let u = 1.0 /. float_of_int n in
          List.iter (fun id -> Hashtbl.replace restart id u) nodes
        end
        else
          List.iter (fun (id, w) ->
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt restart id) in
              Hashtbl.replace restart id (prev +. (w /. total)))
            valid);
      let restart_of id = Option.value ~default:0.0 (Hashtbl.find_opt restart id) in
      let rank = Hashtbl.create n in
      List.iter (fun id -> Hashtbl.replace rank id (restart_of id)) nodes;
      let get tbl id = Option.value ~default:0.0 (Hashtbl.find_opt tbl id) in
      let rec iterate i =
        if i < iterations then begin
          let next = Hashtbl.create n in
          (* Dangling nodes donate their mass to the restart vector. *)
          let dangling =
            List.fold_left
              (fun acc id -> if Digraph.out_edges g id = [] then acc +. get rank id else acc)
              0.0 nodes
          in
          List.iter
            (fun id ->
              let flow =
                List.fold_left
                  (fun acc (src, _) ->
                    let deg = List.length (Digraph.out_edges g src) in
                    if deg > 0 then acc +. (get rank src /. float_of_int deg) else acc)
                  0.0 (Digraph.in_edges g id)
              in
              let r = restart_of id in
              Hashtbl.replace next id
                (((1.0 -. damping) *. r) +. (damping *. (flow +. (dangling *. r)))))
            nodes;
          let delta =
            List.fold_left
              (fun acc id -> acc +. Float.abs (get next id -. get rank id))
              0.0 nodes
          in
          Hashtbl.reset rank;
          Hashtbl.iter (fun id v -> Hashtbl.replace rank id v) next;
          if delta > epsilon then iterate (i + 1)
        end
      in
      iterate 0;
      rank
    end

  type scores = { hub : (int, float) Hashtbl.t; authority : (int, float) Hashtbl.t }

  let hits ?(iterations = 30) ?(epsilon = 1e-8) ?subset g =
    let members =
      match subset with
      | None -> Digraph.nodes g
      | Some ids -> List.sort_uniq Int.compare (List.filter (Digraph.mem_node g) ids)
    in
    let in_set = Hashtbl.create (List.length members) in
    List.iter (fun id -> Hashtbl.replace in_set id ()) members;
    let hub = Hashtbl.create 64 and authority = Hashtbl.create 64 in
    List.iter
      (fun id ->
        Hashtbl.replace hub id 1.0;
        Hashtbl.replace authority id 1.0)
      members;
    let get tbl id = Option.value ~default:0.0 (Hashtbl.find_opt tbl id) in
    let normalize tbl =
      let norm =
        sqrt (Hashtbl.fold (fun _ v acc -> acc +. (v *. v)) tbl 0.0)
      in
      if norm > 0.0 then
        Hashtbl.iter (fun id v -> Hashtbl.replace tbl id (v /. norm)) (Hashtbl.copy tbl)
    in
    let step () =
      (* authority(v) = sum of hub(u) over in-neighbors u in the subset *)
      let delta = ref 0.0 in
      let new_auth =
        List.map
          (fun v ->
            let s =
              List.fold_left
                (fun acc (u, _) -> if Hashtbl.mem in_set u then acc +. get hub u else acc)
                0.0 (Digraph.in_edges g v)
            in
            (v, s))
          members
      in
      List.iter (fun (v, s) -> Hashtbl.replace authority v s) new_auth;
      normalize authority;
      let new_hub =
        List.map
          (fun v ->
            let s =
              List.fold_left
                (fun acc (w, _) ->
                  if Hashtbl.mem in_set w then acc +. get authority w else acc)
                0.0 (Digraph.out_edges g v)
            in
            (v, s))
          members
      in
      List.iter
        (fun (v, s) ->
          delta := !delta +. Float.abs (s -. get hub v);
          Hashtbl.replace hub v s)
        new_hub;
      normalize hub;
      !delta
    in
    let rec iterate i =
      if i < iterations then begin
        let delta = step () in
        if delta > epsilon then iterate (i + 1)
      end
    in
    iterate 0;
    { hub; authority }
end
