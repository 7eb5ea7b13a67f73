(* [source.(id)] is the node record document [id] was built from. *)
type t = {
  store : Prov_store.t;
  index : Textindex.Inverted_index.t;
  source : Prov_node.t option array;
}

let indexable (n : Prov_node.t) =
  match n.Prov_node.kind with
  | Prov_node.Page _ | Prov_node.Search_term _ | Prov_node.Bookmark _ -> true
  | Prov_node.Visit _ | Prov_node.Download _ | Prov_node.Form_submission _ -> false

let build store =
  let graph = Prov_store.graph store in
  let index = Textindex.Inverted_index.create () in
  let source = Array.make (Provgraph.Digraph.bound graph) None in
  Provgraph.Digraph.iter_nodes graph (fun id n ->
      if indexable n then begin
        Textindex.Inverted_index.add_document index id (Prov_node.text_terms n);
        source.(id) <- Some n
      end);
  { store; index; source }

let store t = t.store

let with_scores t query k =
  Textindex.Scorer.with_scores t.index ~terms:(Textindex.Tokenizer.terms query) k

let search ?(limit = 20) t query =
  Textindex.Scorer.scores ~limit t.index ~terms:(Textindex.Tokenizer.terms query)

let distinct_terms t (n : Prov_node.t) =
  let id = n.Prov_node.id in
  match if id < Array.length t.source then t.source.(id) else None with
  | Some indexed when indexed == n -> Textindex.Inverted_index.terms t.index id
  | Some _ | None -> List.sort_uniq String.compare (Prov_node.text_terms n)

let idf t term = Textindex.Scorer.idf t.index term
