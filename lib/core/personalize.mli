(** Personalizing web search (§2.2).

    Term-frequency analysis over the results of a contextual history
    search: find the terms of the user's own history most associated
    with the query, and expand the web query with them — "rosebud"
    becomes "rosebud flower" for the gardener.  The expansion happens
    entirely on the user's machine; the search engine only ever sees the
    expanded query string, never the history (the paper's privacy
    argument). *)

type expansion = {
  original : string;
  expanded : string;  (** original plus the chosen terms *)
  added_terms : (string * float) list;  (** term, association weight *)
  truncated : bool;
  elapsed_ms : float;
}

val expand : ?budget:Query_budget.t -> Prov_text_index.t -> string -> expansion
(** [expand index query] mines the provenance neighborhood of [query]
    and returns the expanded query: the terms of the top 15
    contextual-search results ({!Contextual_search.default_config}),
    weighted by result score times IDF, skipping terms with IDF below
    0.2, and the 2 heaviest appended.  When history holds no usable
    context the expansion equals the original query. *)
