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

let expand ?(config = default_config) ?(mask = Digraph.all_tags) g ~seeds k =
  let bound = Digraph.bound g in
  Scratch.with_ ~bound @@ fun reached ->
  let scores = Scratch.floats reached 0 in
  (* Per-seed BFS keeps "shortest hop from this seed" semantics additive
     across seeds.  Seeds are few (top-k text hits), so this stays cheap. *)
  let truncated = ref false in
  let expansions = ref 0 in
  let budget_ok () =
    match config.node_budget with
    | None -> true
    | Some b -> if !expansions >= b then (truncated := true; false) else true
  in
  (* decay^h for every hop h the walk can reach. *)
  let decay_pow =
    Array.init (max 0 (config.max_hops + 1)) (fun h -> Float.pow config.decay (float_of_int h))
  in
  (* How many of a node's first [n] packed edges [adj] the mask admits. *)
  let admitted adj n =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if Digraph.admits mask (Array.unsafe_get adj i) then incr c
    done;
    !c
  in
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
            let continue = ref true in
            while !continue && !head < walk.Scratch.count do
              if not (budget_ok ()) then continue := false
              else begin
                let current = walk.Scratch.ids.(!head) in
                incr head;
                incr expansions;
                let d = depth.(current) in
                if d < config.max_hops then begin
                  let hop = d + 1 in
                  let out = Digraph.out_adj g current and n_out = Digraph.out_degree g current in
                  let inc = Digraph.in_adj g current and n_in = Digraph.in_degree g current in
                  (* In flow mode a node splits its mass among the
                     edges the mask admits, counted before any is
                     visited. *)
                  let m =
                    if config.degree_normalize then
                      let fanout = admitted out n_out + admitted inc n_in in
                      mass.(current) *. config.decay /. float_of_int (max 1 fanout)
                    else seed_score *. decay_pow.(hop)
                  in
                  (* Out-edges, then in-edges, in one loop so [m] stays
                     an unboxed float. *)
                  for k = 0 to n_out + n_in - 1 do
                    let e =
                      if k < n_out then Array.unsafe_get out k
                      else Array.unsafe_get inc (k - n_out)
                    in
                    let next = Digraph.other e in
                    if Digraph.admits mask e && not (Scratch.mem walk next) then begin
                      Scratch.add walk next;
                      depth.(next) <- hop;
                      mass.(next) <- m;
                      bump reached scores next m
                    end
                  done
                end
              end
            done
          end)
        seeds);
  k { reached; scores; truncated = !truncated }
