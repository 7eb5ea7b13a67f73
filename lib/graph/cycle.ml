(* Three-colour DFS over an explicit stack of frames, each a node on
   the current path with the successors it has still to try; recursion
   would overflow on 100k-node histories.  Colours ('\000' white,
   '\001' on the path, '\002' done) and DFS parents are indexed by
   node id. *)
let find_cycle ?(mask = Digraph.all_tags) g =
  let colour = Bytes.make (Digraph.bound g) '\000' and parent = Array.make (Digraph.bound g) 0 in
  (* Distinct successors over the edges the mask admits, ascending. *)
  let children id =
    let adj = Digraph.out_adj g id and acc = ref [] in
    for i = 0 to Digraph.out_degree g id - 1 do
      if Digraph.admits mask adj.(i) then acc := Digraph.other adj.(i) :: !acc
    done;
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

let has_cycle ?mask g = find_cycle ?mask g <> None
