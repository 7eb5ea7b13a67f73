type config = {
  decay : float;
  max_hops : int;
  direction : Traversal.direction;
  edge_weight : float;
  node_budget : int option;
  degree_normalize : bool;
}

let default_config =
  {
    decay = 0.5;
    max_hops = 2;
    direction = Traversal.Both;
    edge_weight = 1.0;
    node_budget = None;
    degree_normalize = false;
  }

(* Adds [v] to a node's score, recording the node the first time. *)
let[@inline] bump (s : Walk_scratch.t) ~call id v =
  if s.seen.(id) = call then s.score.(id) <- s.score.(id) +. v
  else begin
    s.seen.(id) <- call;
    s.score.(id) <- 0.0 +. v;
    s.order.(s.scored) <- id;
    s.scored <- s.scored + 1
  end

let expand ?(config = default_config) ?follow g ~seeds =
  Walk_scratch.with_scratch ~bound:(Digraph.bound g) @@ fun s ->
  let call = Walk_scratch.next_gen s in
  s.scored <- 0;
  let keep =
    match follow with None -> fun _ _ _ -> true | Some f -> fun src dst e -> f ~src ~dst e
  in
  let neighbors = Traversal.iter_neighbors config.direction g in
  (* Per-seed BFS keeps "shortest hop from this seed" semantics additive
     across seeds.  Seeds are few (top-k text hits), so this stays cheap. *)
  let truncated = ref false in
  let expansions = ref 0 in
  let budget_ok () =
    match config.node_budget with
    | None -> true
    | Some b -> if !expansions >= b then (truncated := true; false) else true
  in
  (* The node being expanded, its depth, and in flow mode how many of its
     edges [keep] admits: the neighbors its received mass is split
     among, counted before any is visited. *)
  let current = ref 0 and hop = ref 0 and fanout = ref 0 in
  (* decay^h and edge_weight^h for every hop h the walk can reach. *)
  let powers x = Array.init (max 0 (config.max_hops + 1)) (fun h -> Float.pow x (float_of_int h)) in
  let decay_pow = powers config.decay and weight_pow = powers config.edge_weight in
  let count next e = if keep !current next e then incr fanout in
  List.iter
    (fun (seed, seed_score) ->
      if Digraph.mem_node g seed && seed_score > 0.0 then begin
        bump s ~call seed seed_score;
        let gen = Walk_scratch.next_gen s in
        s.stamp.(seed) <- gen;
        s.depth.(seed) <- 0;
        (* In flow mode [mass] is what reached each node along its BFS
           discovery; it is what the node splits among its own
           neighbors. *)
        s.mass.(seed) <- seed_score;
        s.queue.(0) <- seed;
        let head = ref 0 and tail = ref 1 in
        let visit next e =
          if keep !current next e && s.stamp.(next) <> gen then begin
            let hop = !hop in
            s.stamp.(next) <- gen;
            s.depth.(next) <- hop;
            let mass =
              if config.degree_normalize then
                s.mass.(!current) *. config.decay *. config.edge_weight
                /. float_of_int (max 1 !fanout)
              else seed_score *. decay_pow.(hop) *. weight_pow.(hop)
            in
            s.mass.(next) <- mass;
            bump s ~call next mass;
            s.queue.(!tail) <- next;
            incr tail
          end
        in
        let continue = ref true in
        while !continue && !head < !tail do
          if not (budget_ok ()) then continue := false
          else begin
            current := s.queue.(!head);
            incr head;
            incr expansions;
            let d = s.depth.(!current) in
            if d < config.max_hops then begin
              hop := d + 1;
              if config.degree_normalize then begin
                fanout := 0;
                neighbors !current count
              end;
              neighbors !current visit
            end
          end
        done
      end)
    seeds;
  (* Filled in first-reach order, the table iterates exactly as one
     built by bumping it along the walk would. *)
  let scores = Hashtbl.create 128 in
  for i = 0 to s.scored - 1 do
    let id = s.order.(i) in
    Hashtbl.add scores id s.score.(id)
  done;
  (scores, !truncated)

let ranked scores =
  let all = Hashtbl.fold (fun id v acc -> (id, v) :: acc) scores [] in
  List.sort
    (fun (ia, va) (ib, vb) ->
      let c = Float.compare vb va in
      if c <> 0 then c else Int.compare ia ib)
    all
