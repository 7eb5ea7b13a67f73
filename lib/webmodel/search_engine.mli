(** A simulated web search engine over the synthetic web.

    Plays the role of Google in the use cases: it serves ranked results
    for query strings and mints a result-page (SERP) URL per query, which
    the browser records in history exactly as it would a real engine's
    URL.  Personalization experiments compare the rank of the user's
    intended page under the raw query versus the provenance-expanded
    query — without the engine ever seeing user history (§2.2). *)

type t

type result = { page : int; score : float }

val build : Web_graph.t -> t
(** Index every navigable page (redirects and images are not indexed,
    files are — people do search for downloads). *)

val engine_host : string
(** ["search.example"]. *)

val serp_url : string -> Url.t
(** The result-page URL for a raw query string, e.g.
    [http://search.example/search?q=rosebud+flower]. *)

val search : ?limit:int -> t -> string -> result list
(** Ranked results ([limit] defaults to 10). *)
