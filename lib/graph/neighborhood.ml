module Scratch = Provkit_util.Scratch

type config = {
  decay : float;
  max_hops : int;
  node_budget : int option;
  degree_normalize : bool;
}

let default_config =
  {
    decay = 0.5;
    max_hops = 2;
    node_budget = None;
    degree_normalize = false;
  }

type expansion = { reached : Scratch.t; scores : float array; truncated : bool }

let score e id = if Scratch.mem e.reached id then e.scores.(id) else 0.0

(* Adds [v] to a node's score, making the node reached the first time. *)
let[@inline] bump reached scores id v =
  if Scratch.mem reached id then scores.(id) <- scores.(id) +. v
  else begin
    Scratch.add reached id;
    scores.(id) <- 0.0 +. v
  end

let expand ?(config = default_config) ?follow g ~seeds k =
  let bound = Digraph.bound g in
  Scratch.with_ ~bound @@ fun reached ->
  let scores = Scratch.floats reached 0 in
  let keep =
    match follow with None -> fun _ _ _ -> true | Some f -> fun src dst e -> f ~src ~dst e
  in
  let neighbors = Traversal.iter_neighbors Traversal.Both g in
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
  (* decay^h for every hop h the walk can reach. *)
  let decay_pow =
    Array.init (max 0 (config.max_hops + 1)) (fun h -> Float.pow config.decay (float_of_int h))
  in
  let count next e = if keep !current next e then incr fanout in
  (* One seed's BFS: the walk scratch's members are the nodes it
     reached, its [ids] the queue; [depth] is each one's hop count and,
     in flow mode, [mass] what reached it along its BFS discovery,
     which it splits among its own neighbors. *)
  Scratch.with_ ~bound (fun walk ->
      let depth = Scratch.ints walk 0 and mass = Scratch.floats walk 0 in
      List.iter
        (fun (seed, seed_score) ->
          if Digraph.mem_node g seed && seed_score > 0.0 then begin
            bump reached scores seed seed_score;
            Scratch.clear walk;
            Scratch.add walk seed;
            depth.(seed) <- 0;
            mass.(seed) <- seed_score;
            let head = ref 0 in
            let visit next e =
              if keep !current next e && not (Scratch.mem walk next) then begin
                let hop = !hop in
                Scratch.add walk next;
                depth.(next) <- hop;
                let m =
                  if config.degree_normalize then
                    mass.(!current) *. config.decay /. float_of_int (max 1 !fanout)
                  else seed_score *. decay_pow.(hop)
                in
                mass.(next) <- m;
                bump reached scores next m
              end
            in
            let continue = ref true in
            while !continue && !head < walk.Scratch.count do
              if not (budget_ok ()) then continue := false
              else begin
                current := walk.Scratch.ids.(!head);
                incr head;
                incr expansions;
                let d = depth.(!current) in
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
        seeds);
  k { reached; scores; truncated = !truncated }
