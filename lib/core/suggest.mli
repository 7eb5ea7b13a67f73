(** Provenance-aware location-bar suggestions.

    The baseline awesome bar ({!Browser.Awesomebar}) ranks by text match
    and frecency alone, so "rose" suggests the globally most-visited
    rose page no matter what the user is doing.  With provenance, the
    pages *contextually related to what is on screen right now* — graph
    neighbors of the current visits — can be boosted: the gardener
    typing "rose" while reading gardening pages sees her gardening
    rosebud page first even if a film page is more visited overall.
    This is the §2.2 personalization idea pointed at the §1 location
    bar, computed entirely locally. *)

type suggestion = {
  page : int;  (** page node id *)
  url : string;
  title : string;
  score : float;
  base_score : float;  (** the frecency-like prior *)
  context_score : float;  (** proximity to the supplied context *)
}

val suggest :
  ?limit:int ->
  ?context:int list ->
  Prov_store.t ->
  string ->
  suggestion list
(** [suggest store typed] returns non-hidden pages whose URL or title
    contains [typed] (case-insensitive).  [context] is a list of store
    nodes representing what the user is currently looking at (visit or
    page nodes — typically the current tabs' visits); graph proximity to
    them re-ranks the candidates: a candidate scores [log (1 + visits)]
    plus 4 times the mass a {!Provgraph.Neighborhood.default_config}
    expansion from the context, over causal edges, puts on the page and
    its visits.  Without context this degrades to the frecency-style
    baseline.  [limit] defaults to 6. *)
