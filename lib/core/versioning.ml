module Digraph = Provgraph.Digraph
module Cycle = Provgraph.Cycle
module R = Relstore

let is_acyclic store = not (Cycle.has_cycle ~mask:Prov_edge.causal_mask (Prov_store.graph store))

type page_graph = {
  graph : (string, Prov_edge.t) Digraph.t;
  page_of_store_node : int -> int option;
}

let page_projection store =
  let g = Prov_store.graph store in
  let out = Digraph.create () in
  let to_page id =
    match Prov_store.node_opt store id with
    | None -> None
    | Some n ->
      if Prov_node.is_page n then Some id
      else if Prov_node.is_visit n && Prov_store.page_of_visit store id >= 0 then
        Some (Prov_store.page_of_visit store id)
      else None
  in
  Digraph.iter_nodes g (fun id n ->
      if Prov_node.is_page n then begin
        let url = Option.value ~default:"" (Prov_node.url_of n) in
        Digraph.add_node out id url
      end);
  Digraph.iter_edges g (fun src dst (e : Prov_edge.t) ->
      if Prov_edge.is_traversal e.Prov_edge.kind then begin
        match (to_page src, to_page dst) with
        | Some ps, Some pd when ps <> pd -> Digraph.add_edge out ~src:ps ~dst:pd e
        | _ -> ()
      end);
  { graph = out; page_of_store_node = to_page }

let projection_database pg =
  let db = R.Database.create ~name:"page_projection" in
  let node_schema =
    R.Schema.make ~name:"pp_node"
      [ R.Column.make "id" R.Value.Tint; R.Column.make "url" R.Value.Ttext ]
  in
  let edge_schema =
    R.Schema.make ~name:"pp_edge"
      [
        R.Column.make "src" R.Value.Tint;
        R.Column.make "dst" R.Value.Tint;
        R.Column.make "kind" R.Value.Tint;
        R.Column.make "time" R.Value.Tint;
      ]
  in
  let nodes = R.Database.create_table db node_schema in
  R.Table.add_index ~unique:true nodes ~name:"pp_node_id" ~columns:[ "id" ];
  let edges = R.Database.create_table db edge_schema in
  R.Table.add_index edges ~name:"pp_edge_src" ~columns:[ "src" ];
  R.Table.add_index edges ~name:"pp_edge_dst" ~columns:[ "dst" ];
  Digraph.iter_nodes pg.graph (fun id url ->
      ignore
        (R.Table.insert_fields nodes [ ("id", R.Value.Int id); ("url", R.Value.Text url) ]));
  Digraph.iter_edges pg.graph (fun src dst (e : Prov_edge.t) ->
      ignore
        (R.Table.insert_fields edges
           [
             ("src", R.Value.Int src);
             ("dst", R.Value.Int dst);
             ("kind", R.Value.Int (Prov_edge.kind_code e.Prov_edge.kind));
             ("time", R.Value.Int e.Prov_edge.time);
           ]));
  db

type comparison = {
  versioned_nodes : int;
  versioned_edges : int;
  versioned_acyclic : bool;
  versioned_bytes : int;
  projected_nodes : int;
  projected_edges : int;
  projected_acyclic : bool;
  projected_bytes : int;
}

let compare_strategies store =
  let versioned_db = Prov_schema.to_database store in
  let pg = page_projection store in
  let projected_db = projection_database pg in
  {
    versioned_nodes = Prov_store.node_count store;
    versioned_edges = Prov_store.edge_count store;
    versioned_acyclic = is_acyclic store;
    versioned_bytes = R.Database.total_size versioned_db;
    projected_nodes = Digraph.node_count pg.graph;
    projected_edges = Digraph.edge_count pg.graph;
    projected_acyclic = not (Cycle.has_cycle pg.graph);
    projected_bytes = R.Database.total_size projected_db;
  }
