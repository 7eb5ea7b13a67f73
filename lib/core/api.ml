type t = {
  engine : Browser.Engine.t;
  capture : Capture.t;
  mutable index : Prov_text_index.t option;
  mutable indexed_nodes : int;  (* store size when the index was built *)
}

let attach ?capture_config engine =
  let capture = Capture.attach ?config:capture_config engine in
  { engine; capture; index = None; indexed_nodes = 0 }

let engine t = t.engine
let capture t = t.capture
let store t = Capture.store t.capture
let time_index t = Capture.time_index t.capture

let build_index t =
  let index = Prov_text_index.build (store t) in
  t.index <- Some index;
  t.indexed_nodes <- Prov_store.node_count (store t);
  index

let refresh t = ignore (build_index t)

let text_index t =
  match t.index with
  | None -> build_index t
  | Some index ->
    let now = Prov_store.node_count (store t) in
    if now > t.indexed_nodes + (t.indexed_nodes / 10) then build_index t else index

let contextual_history_search ?budget ?limit t query =
  Contextual_search.search ?budget ?limit (text_index t) query

let personalize_web_search ?budget t query =
  Personalize.expand ?budget (text_index t) query

let time_contextual_search ?budget ?limit t ~query ~context =
  Time_search.search ?budget ?limit (text_index t) (time_index t) ~query ~context

let downloads_from_page ?budget t ~url =
  match Prov_store.page_of_url (store t) url with
  | None ->
    { Lineage.downloads = []; visited = 0; truncated = false; elapsed_ms = 0.0 }
  | Some page -> Lineage.downloads_descending ?budget (store t) page

let page_title t id =
  match Prov_store.node_opt (store t) id with
  | Some { Prov_node.kind = Prov_node.Page { title; _ }; _ } -> title
  | _ -> ""

let page_url t id =
  match Prov_store.node_opt (store t) id with
  | Some { Prov_node.kind = Prov_node.Page { url; _ }; _ } -> url
  | _ -> ""

let persist t = Prov_schema.to_database (store t)
