type t = { store : Prov_store.t; mutable search_index : Textindex.Search.t }

let indexable (n : Prov_node.t) =
  match n.Prov_node.kind with
  | Prov_node.Page _ | Prov_node.Search_term _ | Prov_node.Bookmark _ -> true
  | Prov_node.Visit _ | Prov_node.Download _ | Prov_node.Form_submission _ -> false

let build_index store =
  let search = Textindex.Search.create () in
  Provgraph.Digraph.iter_nodes (Prov_store.graph store) (fun id n ->
      if indexable n then Textindex.Search.index_terms search id (Prov_node.text_terms n));
  search

let build store = { store; search_index = build_index store }
let refresh t = t.search_index <- build_index t.store
let store t = t.store

let search ?(limit = 20) t query =
  List.map
    (fun (r : Textindex.Search.result) -> (r.Textindex.Search.doc, r.Textindex.Search.score))
    (Textindex.Search.query ~limit t.search_index query)

let score t ~terms =
  let score =
    Textindex.Scorer.score_document Textindex.Scorer.default_bm25
      (Textindex.Search.index t.search_index) ~terms
  in
  fun ~node -> score ~doc:node

let idf t term = Textindex.Scorer.idf (Textindex.Search.index t.search_index) term
let indexed_count t = Textindex.Search.document_count t.search_index
