type ('n, 'e) t = {
  payload : (int, 'n) Hashtbl.t;
  out_adj : (int, (int * 'e) list ref) Hashtbl.t;  (* stored reversed *)
  in_adj : (int, (int * 'e) list ref) Hashtbl.t;
  mutable edges : int;
}

let create ?(initial_capacity = 256) () =
  {
    payload = Hashtbl.create initial_capacity;
    out_adj = Hashtbl.create initial_capacity;
    in_adj = Hashtbl.create initial_capacity;
    edges = 0;
  }

let mem_node t id = Hashtbl.mem t.payload id
let node_opt t id = Hashtbl.find_opt t.payload id
let node t id = Hashtbl.find t.payload id
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
  match Hashtbl.find_opt tbl id with
  | None -> []
  | Some cell -> List.rev !cell

let out_edges t id = edge_list t.out_adj id
let in_edges t id = edge_list t.in_adj id

let distinct_endpoints edges =
  List.sort_uniq Int.compare (List.map fst edges)

let succ t id = distinct_endpoints (out_edges t id)
let pred t id = distinct_endpoints (in_edges t id)

let degree tbl id =
  match Hashtbl.find_opt tbl id with None -> 0 | Some cell -> List.length !cell

let out_degree t id = degree t.out_adj id
let in_degree t id = degree t.in_adj id

let node_count t = Hashtbl.length t.payload
let edge_count t = t.edges

let nodes t =
  List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.payload [])

let iter_nodes t f = Hashtbl.iter f t.payload
let fold_nodes t ~init ~f = Hashtbl.fold (fun id p acc -> f acc id p) t.payload init

let iter_edges t f =
  Hashtbl.iter (fun src cell -> List.iter (fun (dst, e) -> f src dst e) (List.rev !cell)) t.out_adj

let fold_edges t ~init ~f =
  Hashtbl.fold
    (fun src cell acc ->
      List.fold_left (fun acc (dst, e) -> f acc src dst e) acc (List.rev !cell))
    t.out_adj init

let filter_nodes t p =
  List.sort Int.compare
    (fold_nodes t ~init:[] ~f:(fun acc id payload ->
         if p id payload then id :: acc else acc))
