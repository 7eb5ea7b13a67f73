type t = { scorer : Scorer.t; index : Inverted_index.t }

type result = { doc : int; score : float }

let create ?(scorer = Scorer.default_bm25) () =
  { scorer; index = Inverted_index.create () }

let index_terms t doc terms = Inverted_index.add_document t.index doc terms

let query_terms ?limit t terms =
  List.map (fun (doc, score) -> { doc; score }) (Scorer.scores ?limit t.scorer t.index ~terms)

let query ?limit t text = query_terms ?limit t (Tokenizer.terms text)
