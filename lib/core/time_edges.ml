let displayed_visit (n : Prov_node.t) =
  match n.Prov_node.kind with
  | Prov_node.Visit { transition; _ } -> Browser.Transition.displayed transition
  | _ -> false

let visit_intervals store =
  Provgraph.Digraph.fold_nodes (Prov_store.graph store) ~init:[] ~f:(fun acc id n ->
      if displayed_visit n then
        match n.Prov_node.time with
        | Some opened -> (opened, id, n) :: acc
        | None -> acc
      else acc)

let rebuild_time_index store =
  let index = Time_index.create () in
  List.iter
    (fun (opened, id, (n : Prov_node.t)) ->
      Time_index.add index ~node:id ~opened;
      match n.Prov_node.close_time with
      | Some closed -> Time_index.close index ~node:id ~closed
      | None -> ())
    (visit_intervals store);
  index

let derive ?(fanout = 4) store =
  let visits =
    (* Open order; node id breaks time ties the same way the online
       capture's sequence numbers do. *)
    List.sort compare (visit_intervals store)
  in
  let tab_of (n : Prov_node.t) =
    match n.Prov_node.kind with Prov_node.Visit { tab; _ } -> tab | _ -> -1
  in
  (* Currently-displayed visit per tab, replaced as later opens arrive. *)
  let current : (int, int * int * int option) Hashtbl.t = Hashtbl.create 16 in
  (* tab -> (open_seq, node, close) *)
  let seq = ref 0 in
  let added = ref 0 in
  List.iter
    (fun (opened, id, (n : Prov_node.t)) ->
      incr seq;
      let tab = tab_of n in
      (* Expire partners whose interval ended before this open. *)
      let partners =
        Hashtbl.fold
          (fun other_tab (order, node, close) acc ->
            if other_tab = tab then acc
            else
              let still_open = match close with None -> true | Some c -> c >= opened in
              if still_open then (order, node) :: acc else acc)
          current []
      in
      let recent =
        List.filteri
          (fun i _ -> i < fanout)
          (List.sort (fun (a, _) (b, _) -> Int.compare b a) partners)
      in
      List.iter
        (fun (_, partner) ->
          Prov_store.add_edge store ~src:partner ~dst:id Prov_edge.Same_time ~time:opened;
          incr added)
        recent;
      Hashtbl.replace current tab (!seq, id, n.Prov_node.close_time))
    visits;
  !added
