type t = { id : int; start : int; stop : int; visits : int list }

let displayed_visits_chronological store =
  let all =
    Provgraph.Digraph.fold_nodes (Prov_store.graph store) ~init:[]
      ~f:(fun acc id n ->
        if Time_edges.displayed_visit n then
          match n.Prov_node.time with
          | Some opened -> (opened, id, Option.value ~default:opened n.Prov_node.close_time) :: acc
          | None -> acc
        else acc)
  in
  List.sort compare all

let detect ?(gap = 1800) store =
  let visits = displayed_visits_chronological store in
  let close_session id start stop acc_visits sessions =
    { id; start; stop; visits = List.rev acc_visits } :: sessions
  in
  let rec go visits current sessions =
    match (visits, current) with
    | [], None -> List.rev sessions
    | [], Some (id, start, stop, acc) -> List.rev (close_session id start stop acc sessions)
    | (opened, node, closed) :: rest, None ->
      go rest (Some (List.length sessions, opened, closed, [ node ])) sessions
    | (opened, node, closed) :: rest, Some (id, start, stop, acc) ->
      if opened - stop > gap then
        go rest
          (Some (id + 1, opened, closed, [ node ]))
          (close_session id start stop acc sessions)
      else go rest (Some (id, start, max stop closed, node :: acc)) sessions
  in
  go visits None []

let at sessions ~time =
  List.find_opt (fun s -> s.start <= time && time <= s.stop) sessions

let visit_count s = List.length s.visits
let duration s = s.stop - s.start

let top_terms ?(limit = 5) store s =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun visit ->
      match Prov_store.node_opt store visit with
      | Some n ->
        List.iter
          (fun term ->
            Hashtbl.replace counts term
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts term)))
          (List.sort_uniq String.compare (Prov_node.text_terms n))
      | None -> ())
    s.visits;
  let all = Hashtbl.fold (fun term n acc -> (term, n) :: acc) counts [] in
  List.filteri
    (fun i _ -> i < limit)
    (List.sort
       (fun (ta, na) (tb, nb) ->
         let c = Int.compare nb na in
         if c <> 0 then c else String.compare ta tb)
       all)

let matching ?(limit = 5) index sessions query =
  let store = Prov_text_index.store index in
  let hits = Prov_text_index.search ~limit:50 index query in
  let page_score = Hashtbl.create 32 in
  List.iter (fun (node, s) -> Hashtbl.replace page_score node s) hits;
  let session_score s =
    List.fold_left
      (fun acc visit ->
        match Hashtbl.find_opt page_score (Prov_store.page_of_visit store visit) with
        | Some score -> acc +. score
        | None -> acc)
      0.0 s.visits
  in
  let scored =
    List.filter_map
      (fun s ->
        let score = session_score s in
        if score > 0.0 then Some (s, score) else None)
      sessions
  in
  List.filteri
    (fun i _ -> i < limit)
    (List.sort
       (fun (sa, xa) (sb, xb) ->
         let c = Float.compare xb xa in
         if c <> 0 then c else Int.compare sa.id sb.id)
       scored)

let describe store s =
  let terms = String.concat ", " (List.map fst (top_terms store s)) in
  Printf.sprintf "session %d: t=%d..%d (%ds), %d visits, about: %s" s.id s.start s.stop
    (duration s) (visit_count s) terms
