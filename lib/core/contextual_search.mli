(** Contextual history search (§2.1).

    The paper's adaptation of Shah et al.'s provenance-aided search: run
    a textual search over history, then spread relevance through the
    provenance graph so that items *derived from* relevant items —
    Citizen Kane found via a "rosebud" search — surface even when they
    share no text with the query.  Mechanically it is a seeded
    neighborhood expansion, the graph-neighborhood analogue of HITS the
    paper cites. *)

type config = {
  seed_count : int;  (** top text hits used as expansion seeds *)
  max_hops : int;
  decay : float;
  text_weight : float;
  graph_weight : float;
  follow_non_user_edges : bool;
      (** include redirect/embed edges in expansion (§3.2 says
          personalization may want them off) *)
  follow_time_edges : bool;  (** include [Same_time] context edges *)
  degree_normalize : bool;
      (** split mass by degree during expansion (random-walk flavour)
          instead of pure hop decay; off by default — E12 compares the
          behaviours, and {!search_pagerank} is the fully normalized
          alternative *)
}

val default_config : config

type result = {
  page : int;  (** page node id *)
  score : float;
  text_score : float;
  graph_score : float;
}

type response = { results : result list; truncated : bool; elapsed_ms : float }

val search :
  ?config:config ->
  ?budget:Query_budget.t ->
  ?limit:int ->
  Prov_text_index.t ->
  string ->
  response
(** [search index query]: ranked page nodes ([limit] defaults to 10). *)

val textual_only : ?limit:int -> Prov_text_index.t -> string -> result list
(** The baseline ranking (no graph expansion) over the same index, for
    like-for-like comparisons inside E4. *)

(** {2 Alternative graph-ranking algorithms}

    §4: "our purpose at this time is not to find the best algorithms for
    browser provenance... We must now develop more intelligent
    algorithms."  These variants answer the same query with personalized
    PageRank and with HITS over the Kleinberg-style focused subgraph
    around the text seeds; experiment E12 compares all three. *)

val search_pagerank :
  ?config:config ->
  ?budget:Query_budget.t ->
  ?limit:int ->
  Prov_text_index.t ->
  string ->
  response
(** Personalized PageRank ({!Provgraph.Pagerank.run}) restarted at the
    text seeds, run over the subgraph the seeds' [max_hops]-neighborhood
    induces ({!Provgraph.Subgraph}); a page's graph score is its nodes'
    rank mass times the member count over 10. *)

val search_hits :
  ?config:config ->
  ?budget:Query_budget.t ->
  ?limit:int ->
  Prov_text_index.t ->
  string ->
  response
(** HITS ({!Provgraph.Hits.run}) over the same induced subgraph; a
    page's graph score is its nodes' authority plus half their hub
    score. *)
