module Digraph = Provgraph.Digraph

type node = {
  visit : int;
  parent : int option;
  children : int list;
  edge : Prov_edge.kind option;
}

type t = { nodes : (int, node) Hashtbl.t; root_list : int list }

let navigation_kind = function
  | Prov_edge.Link_traversal | Prov_edge.Typed_traversal | Prov_edge.Redirect
  | Prov_edge.Tab_spawn | Prov_edge.Reload -> true
  | Prov_edge.Bookmark_traversal | Prov_edge.Form_result
  (* these originate at bookmark/form nodes, not visits; the visit->visit
     navigation parent is absent for them *)
  | Prov_edge.Bookmarked_from | Prov_edge.Embed | Prov_edge.Form_source
  | Prov_edge.Download_source | Prov_edge.Download_fetch | Prov_edge.Search_query
  | Prov_edge.Searched_from | Prov_edge.Instance | Prov_edge.Same_time -> false

let displayed store id =
  match Prov_store.node_opt store id with
  | Some n -> Time_edges.displayed_visit n
  | None -> false

let build store =
  let g = Prov_store.graph store in
  let nodes = Hashtbl.create 1024 in
  let children : (int, int list) Hashtbl.t = Hashtbl.create 1024 in
  let visits =
    List.filter (displayed store) (Digraph.filter_nodes g (fun _ n -> Prov_node.is_visit n))
  in
  (* Pick each visit's navigation parent: the earliest navigation edge
     from another displayed visit. *)
  let parent_of visit =
    let candidates =
      List.filter_map
        (fun (src, (e : Prov_edge.t)) ->
          if navigation_kind e.Prov_edge.kind && displayed store src then
            Some (e.Prov_edge.time, src, e.Prov_edge.kind)
          else None)
        (Digraph.in_edges g visit)
    in
    match List.sort compare candidates with
    | (_, src, kind) :: _ -> Some (src, kind)
    | [] -> None
  in
  List.iter
    (fun visit ->
      match parent_of visit with
      | Some (src, kind) ->
        Hashtbl.replace nodes visit { visit; parent = Some src; children = []; edge = Some kind };
        Hashtbl.replace children src
          (visit :: Option.value ~default:[] (Hashtbl.find_opt children src))
      | None -> Hashtbl.replace nodes visit { visit; parent = None; children = []; edge = None })
    visits;
  Hashtbl.iter
    (fun visit kids ->
      match Hashtbl.find_opt nodes visit with
      | Some n -> Hashtbl.replace nodes visit { n with children = List.sort Int.compare kids }
      | None -> ())
    children;
  let root_list =
    List.sort Int.compare
      (Hashtbl.fold (fun id n acc -> if n.parent = None then id :: acc else acc) nodes [])
  in
  { nodes; root_list }

let node t id = Hashtbl.find_opt t.nodes id
let roots t = t.root_list
let size t = Hashtbl.length t.nodes

let depth t id =
  let rec go id acc =
    match node t id with
    | Some { parent = Some p; _ } when acc < 1_000_000 -> go p (acc + 1)
    | _ -> acc
  in
  go id 0

let subtree t id =
  match node t id with
  | None -> []
  | Some _ ->
    let out = ref [] in
    let rec walk id =
      out := id :: !out;
      match node t id with
      | Some n -> List.iter walk n.children
      | None -> ()
    in
    walk id;
    List.rev !out

let is_forest t =
  (* Parent uniqueness holds by construction; check acyclicity by
     walking up from every node with a step bound. *)
  let bound = size t + 1 in
  Hashtbl.fold
    (fun id _ ok ->
      ok
      &&
      let rec climb id steps =
        if steps > bound then false
        else
          match node t id with
          | Some { parent = Some p; _ } -> climb p (steps + 1)
          | _ -> true
      in
      climb id 0)
    t.nodes true

let render ?(max_nodes = 200) ?(since = min_int) store t =
  let buf = Buffer.create 1024 in
  let emitted = ref 0 in
  let label visit =
    match Prov_store.node_opt store visit with
    | Some ({ Prov_node.kind = Prov_node.Visit { title; url; _ }; time; _ } as _n) ->
      let shown = if title = "" then url else title in
      Printf.sprintf "%s  [t=%d]" (Provkit_util.Strutil.truncate 48 shown)
        (Option.value ~default:0 time)
    | _ -> Printf.sprintf "#%d" visit
  in
  let edge_marker = function
    | Some Prov_edge.Typed_traversal -> "(typed) "
    | Some Prov_edge.Redirect -> "(redirect) "
    | Some Prov_edge.Tab_spawn -> "(new tab) "
    | _ -> ""
  in
  let rec emit prefix visit =
    if !emitted < max_nodes then begin
      incr emitted;
      (match node t visit with
      | Some n ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s%s\n" prefix (edge_marker n.edge) (label visit));
        List.iter (emit (prefix ^ "  ")) n.children
      | None -> ())
    end
  in
  let recent_root root =
    match Prov_store.node_opt store root with
    | Some { Prov_node.time = Some time; _ } -> time >= since
    | _ -> true
  in
  List.iter
    (fun root -> if recent_root root then emit "" root)
    t.root_list;
  if !emitted >= max_nodes then Buffer.add_string buf "...(truncated)\n";
  Buffer.contents buf

type encoding_comparison = {
  visits : int;
  parent_pointer_bytes : int;
  edge_table_bytes : int;
}

let storage_comparison store t =
  (* Parent-pointer encoding: per visit, varint(visit id) + varint(parent
     or 0) + one kind byte. *)
  let parent_pointer_bytes =
    Hashtbl.fold
      (fun id n acc ->
        acc
        + Provkit_util.Varint.size_unsigned id
        + Provkit_util.Varint.size_unsigned (Option.value ~default:0 n.parent)
        + 1)
      t.nodes 0
  in
  (* The same relationships as relational edge rows with src/dst indexes
     (what prov_edge costs for them). *)
  let edge_schema =
    Relstore.Schema.make ~name:"nav_edge"
      [
        Relstore.Column.make "src" Relstore.Value.Tint;
        Relstore.Column.make "dst" Relstore.Value.Tint;
        Relstore.Column.make "kind" Relstore.Value.Tint;
      ]
  in
  let table = Relstore.Table.create edge_schema in
  Relstore.Table.add_index table ~name:"nav_src" ~columns:[ "src" ];
  Relstore.Table.add_index table ~name:"nav_dst" ~columns:[ "dst" ];
  Hashtbl.iter
    (fun id n ->
      match (n.parent, n.edge) with
      | Some p, Some kind ->
        ignore
          (Relstore.Table.insert_fields table
             [
               ("src", Relstore.Value.Int p);
               ("dst", Relstore.Value.Int id);
               ("kind", Relstore.Value.Int (Prov_edge.kind_code kind));
             ])
      | _ -> ())
    t.nodes;
  ignore store;
  {
    visits = size t;
    parent_pointer_bytes;
    edge_table_bytes = Relstore.Table.total_size table;
  }
