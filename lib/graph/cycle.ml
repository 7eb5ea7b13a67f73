(* Three-colour DFS over an explicit stack of frames, each a node on
   the current path with the successors it has still to try; recursion
   would overflow on 100k-node histories.  Colours ('\000' white,
   '\001' on the path, '\002' done) and DFS parents are indexed by
   node id. *)
let find_cycle ?(follow = fun ~src:_ ~dst:_ _ -> true) g =
  let colour = Bytes.make (Digraph.bound g) '\000' and parent = Array.make (Digraph.bound g) 0 in
  (* Distinct successors over followed edges, ascending. *)
  let children id =
    let acc = ref [] in
    Digraph.iter_out g id (fun dst e -> if follow ~src:id ~dst e then acc := dst :: !acc);
    List.sort_uniq Int.compare !acc
  in
  let enter id =
    Bytes.set colour id '\001';
    (id, children id)
  in
  let rec walk = function
    | [] -> None
    | (id, []) :: rest ->
      Bytes.set colour id '\002';
      walk rest
    | (id, next :: later) :: rest -> begin
      let stack = (id, later) :: rest in
      match Bytes.get colour next with
      | '\001' ->
        (* An edge back onto the path: the cycle runs from [next] down
           the path to [id]. *)
        let rec build acc v = if v = next then v :: acc else build (v :: acc) parent.(v) in
        Some (build [] id)
      | '\002' -> walk stack
      | _ ->
        parent.(next) <- id;
        walk (enter next :: stack)
    end
  in
  Digraph.fold_nodes g ~init:None ~f:(fun found id _ ->
      match found with
      | Some _ -> found
      | None -> if Bytes.get colour id = '\000' then walk [ enter id ] else None)

let has_cycle ?follow g = find_cycle ?follow g <> None

let topological_sort g =
  let indeg = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace indeg id (Digraph.in_degree g id)) (Digraph.nodes g);
  (* Min-heap behaviour via a sorted module; history graphs are small
     enough that a Set works well and keeps determinism trivial. *)
  let module Iset = Set.Make (Int) in
  let ready =
    List.fold_left
      (fun acc id -> if Hashtbl.find indeg id = 0 then Iset.add id acc else acc)
      Iset.empty (Digraph.nodes g)
  in
  let rec drain ready acc count =
    match Iset.min_elt_opt ready with
    | None -> (List.rev acc, count)
    | Some id ->
      let ready = Iset.remove id ready in
      let ready =
        List.fold_left
          (fun ready next ->
            (* Multi-edges decrement once per edge. *)
            let dec =
              List.length (List.filter (fun (d, _) -> d = next) (Digraph.out_edges g id))
            in
            let remaining = Hashtbl.find indeg next - dec in
            Hashtbl.replace indeg next remaining;
            if remaining = 0 then Iset.add next ready else ready)
          ready (Digraph.succ g id)
      in
      drain ready (id :: acc) (count + 1)
  in
  let order, count = drain ready [] 0 in
  if count = Digraph.node_count g then Some order else None

(* Kosaraju with iterative DFS passes; safe on deep navigation chains. *)
let strongly_connected_components g =
  let postorder = Traversal.dfs_postorder g ~roots:(Digraph.nodes g) in
  let assigned = Hashtbl.create 64 in
  let components = ref [] in
  let collect root =
    (* Iterative DFS over in-edges (the transpose). *)
    let members = ref [] in
    let stack = Stack.create () in
    Stack.push root stack;
    while not (Stack.is_empty stack) do
      let v = Stack.pop stack in
      if not (Hashtbl.mem assigned v) then begin
        Hashtbl.replace assigned v ();
        members := v :: !members;
        List.iter
          (fun w -> if not (Hashtbl.mem assigned w) then Stack.push w stack)
          (Digraph.pred g v)
      end
    done;
    List.sort Int.compare !members
  in
  List.iter
    (fun v -> if not (Hashtbl.mem assigned v) then components := collect v :: !components)
    (List.rev postorder);
  List.rev !components
