module R = Relstore
module Digraph = Provgraph.Digraph

let node_table = "prov_node"
let edge_table = "prov_edge"
let attr_table = "prov_attr"

let vint n = R.Value.Int n
let vtext s = R.Value.Text s
let vint_opt = function None -> R.Value.Null | Some n -> R.Value.Int n
let vtext_opt = function None -> R.Value.Null | Some s -> R.Value.Text s

(* Node/download/visit ids are the table rowids, SQLite-style (INTEGER
   PRIMARY KEY aliases the rowid); provenance node ids are contiguous
   from 1 and written in ascending order so rowid = node id. *)
let node_schema =
  R.Schema.make ~name:node_table
    [
      R.Column.make "kind" R.Value.Tint;
      R.Column.make "label" R.Value.Ttext;
      R.Column.make ~nullable:true "url" R.Value.Ttext;
      R.Column.make ~nullable:true "aux" R.Value.Ttext;
      R.Column.make ~nullable:true "transition" R.Value.Tint;
      R.Column.make ~nullable:true "tab" R.Value.Tint;
      R.Column.make ~nullable:true "page" R.Value.Tint;
      R.Column.make ~nullable:true "time" R.Value.Tint;
      R.Column.make ~nullable:true "close_time" R.Value.Tint;
    ]

let edge_schema =
  R.Schema.make ~name:edge_table
    [
      R.Column.make "src" R.Value.Tint;
      R.Column.make "dst" R.Value.Tint;
      R.Column.make "kind" R.Value.Tint;
      R.Column.make "time" R.Value.Tint;
    ]

let attr_schema =
  R.Schema.make ~name:attr_table
    [
      R.Column.make "node" R.Value.Tint;
      R.Column.make "name" R.Value.Ttext;
      R.Column.make "value" R.Value.Ttext;
    ]

let node_row ~page (n : Prov_node.t) =
  let label, url, aux, transition, tab =
    match n.Prov_node.kind with
    | Prov_node.Page { url; title } -> (title, Some url, None, None, None)
    | Prov_node.Visit { url = _; title = _; transition; tab } ->
      (* Normalized like Places: a visit's url/title live on its page
         node, referenced by the [page] column (the factorized form of
         the Instance edge, cf. Chapman et al. on factorization). *)
      ("", None, None, Some (Browser.Transition.to_code transition), Some tab)
    | Prov_node.Bookmark { title; url } -> (title, Some url, None, None, None)
    | Prov_node.Download { source_url; target_path } ->
      ("", Some source_url, Some target_path, None, None)
    | Prov_node.Search_term { query } -> (query, None, None, None, None)
    | Prov_node.Form_submission _ -> ("", None, None, None, None)
  in
  [
    ("kind", vint (Prov_node.kind_code n.Prov_node.kind));
    ("label", vtext label);
    ("url", vtext_opt url);
    ("aux", vtext_opt aux);
    ("transition", vint_opt transition);
    ("tab", vint_opt tab);
    ("page", vint_opt page);
    ("time", vint_opt n.Prov_node.time);
    ("close_time", vint_opt n.Prov_node.close_time);
  ]

(* --- the op -> row mapping ----------------------------------------- *)

type image = {
  db : R.Database.t;
  nodes : R.Table.t;
  edges : R.Table.t;
  attrs : R.Table.t;
  rowid_of : int -> int;  (* node id -> prov_node rowid *)
}

let make_image ~rowid_of =
  let db = R.Database.create ~name:"browser_provenance" in
  let nodes = R.Database.create_table db node_schema in
  R.Table.add_index nodes ~name:"node_url" ~columns:[ "url" ];
  let edges = R.Database.create_table db edge_schema in
  R.Table.add_index edges ~name:"edge_src" ~columns:[ "src" ];
  R.Table.add_index edges ~name:"edge_dst" ~columns:[ "dst" ];
  let attrs = R.Database.create_table db attr_schema in
  R.Table.add_index attrs ~name:"attr_node" ~columns:[ "node" ];
  { db; nodes; edges; attrs; rowid_of }

let image () = make_image ~rowid_of:Fun.id
let database img = img.db

let visit_kind = 1 (* [Prov_node.kind_code] of a visit, as in [kind_of_row] *)

let apply img (op : Prov_store.mutation) =
  match op with
  | Prov_store.Add_node n -> begin
    let rowid = img.rowid_of n.Prov_node.id in
    match R.Table.get_opt img.nodes rowid with
    | Some old ->
      (* A re-added node (a page whose title was refreshed) keeps the
         page reference an Instance edge filled in. *)
      let page = R.Row.int_opt node_schema old "page" in
      R.Table.update img.nodes rowid (R.Row.of_alist node_schema (node_row ~page n))
    | None -> (
      (* Node ids are rowids: a new node must land on the next one. *)
      let got = R.Table.insert_fields img.nodes (node_row ~page:None n) in
      if got <> rowid then
        R.Errors.corrupt "prov_node: node %d would get rowid %d, not %d" n.Prov_node.id got
          rowid;
      match n.Prov_node.kind with
      | Prov_node.Form_submission { fields } ->
        List.iter
          (fun (name, value) ->
            ignore
              (R.Table.insert_fields img.attrs
                 [ ("node", vint rowid); ("name", vtext name); ("value", vtext value) ]))
          fields
      | Prov_node.Page _ | Prov_node.Visit _ | Prov_node.Bookmark _ | Prov_node.Download _
      | Prov_node.Search_term _ -> ())
  end
  | Prov_store.Add_edge { src; dst; edge } -> begin
    match edge.Prov_edge.kind with
    (* Same_time edges are derivable from the visit open/close stamps
       (§3.2) and are session data — not persisted (see {!Time_edges}). *)
    | Prov_edge.Same_time -> ()
    (* Instance edges are factorized into the visit row's [page] column;
       a visit's first Instance edge names its page, as in
       {!Prov_store.page_of_visit}. *)
    | Prov_edge.Instance -> (
      let visit = img.rowid_of dst in
      match R.Table.get_opt img.nodes visit with
      | Some row
        when R.Row.int node_schema row "kind" = visit_kind
             && R.Row.int_opt node_schema row "page" = None ->
        R.Table.update_field img.nodes visit "page" (vint (img.rowid_of src))
      | Some _ | None -> ())
    | Prov_edge.Link_traversal | Prov_edge.Typed_traversal | Prov_edge.Bookmark_traversal
    | Prov_edge.Bookmarked_from | Prov_edge.Redirect | Prov_edge.Embed | Prov_edge.Form_source
    | Prov_edge.Form_result | Prov_edge.Download_source | Prov_edge.Download_fetch
    | Prov_edge.Search_query | Prov_edge.Searched_from | Prov_edge.Tab_spawn | Prov_edge.Reload ->
      ignore
        (R.Table.insert_fields img.edges
           [
             ("src", vint (img.rowid_of src));
             ("dst", vint (img.rowid_of dst));
             ("kind", vint (Prov_edge.kind_code edge.Prov_edge.kind));
             ("time", vint edge.Prov_edge.time);
           ])
  end
  | Prov_store.Close_node { id; time } ->
    let rowid = img.rowid_of id in
    if R.Table.mem img.nodes rowid then R.Table.update_field img.nodes rowid "close_time" (vint time)

let to_database store =
  (* Node ids are the rowids; stores whose id space became sparse (e.g.
     after {!Retention.expire}) are compacted on the way out, keeping
     the rowid-as-id invariant of the SQLite-style format.  For a
     contiguous store the remapping is the identity. *)
  let remap = Hashtbl.create (Prov_store.node_count store) in
  List.iteri
    (fun i id -> Hashtbl.replace remap id (i + 1))
    (Digraph.nodes (Prov_store.graph store));
  let img = make_image ~rowid_of:(Hashtbl.find remap) in
  Prov_store.iter_contents store (apply img);
  img.db

let require_text what = function
  | Some s -> s
  | None -> R.Errors.corrupt "prov_node: missing %s" what

let kind_of_row schema ~rowid row attrs_of =
  let text_opt name = R.Row.text_opt schema row name in
  let int_opt name = R.Row.int_opt schema row name in
  let label = R.Row.text schema row "label" in
  match R.Row.int schema row "kind" with
  | 0 -> Prov_node.Page { url = require_text "url" (text_opt "url"); title = label }
  | 1 ->
    let transition =
      match int_opt "transition" with
      | Some c -> Browser.Transition.of_code c
      | None -> R.Errors.corrupt "prov_node: visit without transition"
    in
    (* url/title are filled in from the page node once edges are loaded. *)
    Prov_node.Visit
      {
        url = Option.value ~default:"" (text_opt "url");
        title = label;
        transition;
        tab = Option.value ~default:0 (int_opt "tab");
      }
  | 2 -> Prov_node.Bookmark { title = label; url = require_text "url" (text_opt "url") }
  | 3 ->
    Prov_node.Download
      {
        source_url = require_text "url" (text_opt "url");
        target_path = require_text "aux" (text_opt "aux");
      }
  | 4 -> Prov_node.Search_term { query = label }
  | 5 -> Prov_node.Form_submission { fields = attrs_of rowid }
  | k -> R.Errors.corrupt "prov_node: unknown kind %d" k

let of_database db =
  let store = Prov_store.create () in
  let nodes = R.Database.table db node_table in
  let edges = R.Database.table db edge_table in
  let attrs = R.Database.table db attr_table in
  let attrs_of node_id =
    List.map
      (fun (_, row) ->
        (R.Row.text attr_schema row "name", R.Row.text attr_schema row "value"))
      (R.Table.find_by attrs ~columns:[ "node" ] [ vint node_id ])
  in
  let page_refs = ref [] in
  List.iter
    (fun (id, row) ->
      let kind = kind_of_row node_schema ~rowid:id row attrs_of in
      let time = R.Row.int_opt node_schema row "time" in
      (match R.Row.int_opt node_schema row "page" with
      | Some page -> page_refs := (page, id, Option.value ~default:0 time) :: !page_refs
      | None -> ());
      Prov_store.restore_node store
        {
          Prov_node.id;
          kind;
          time;
          close_time = R.Row.int_opt node_schema row "close_time";
        })
    (R.Table.rows nodes);
  (* Unfactorize the page column back into Instance edges. *)
  List.iter
    (fun (page, visit, time) ->
      Prov_store.restore_edge store ~src:page ~dst:visit { Prov_edge.kind = Prov_edge.Instance; time })
    (List.rev !page_refs);
  List.iter
    (fun (_, row) ->
      Prov_store.restore_edge store
        ~src:(R.Row.int edge_schema row "src")
        ~dst:(R.Row.int edge_schema row "dst")
        {
          Prov_edge.kind = Prov_edge.kind_of_code (R.Row.int edge_schema row "kind");
          time = R.Row.int edge_schema row "time";
        })
    (R.Table.rows edges);
  (* Denormalize visit url/title back from their page nodes.  Collect
     first, then apply: restoring while iterating would mutate the node
     table under the iteration. *)
  let g = Prov_store.graph store in
  let fixups =
    Provgraph.Digraph.fold_nodes g ~init:[] ~f:(fun acc id n ->
        match n.Prov_node.kind with
        | Prov_node.Visit v -> begin
          match Prov_store.node_opt store (Prov_store.page_of_visit store id) with
          | Some { Prov_node.kind = Prov_node.Page { url; title }; _ } ->
            { n with Prov_node.kind = Prov_node.Visit { v with url; title } } :: acc
          | _ -> acc
        end
        | _ -> acc)
  in
  List.iter (Prov_store.restore_node store) fixups;
  (* Rebuild the session-only time relationships from the persisted
     open/close stamps. *)
  ignore (Time_edges.derive store);
  store
