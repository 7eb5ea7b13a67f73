(** The baseline textual history search — the paper's "Currently"
    behaviour in every §2 use case.

    Matches the query against each place's own title and URL text only
    (no graph context), ranking by text relevance boosted by frecency,
    like Firefox 3's awesome bar.  Hidden places (embeds, redirect hops)
    are excluded, as in Firefox. *)

type t

type result = { place_id : int; score : float }

val build : Places_db.t -> t
(** Index the current contents of the Places store.  Rebuild after bulk
    history changes ({!refresh}). *)

val search : ?limit:int -> t -> string -> result list
(** Ranked places ([limit] defaults to 10). *)

val place_terms : Places_db.place -> string list
(** The terms indexed for a place (title + URL tokens) — exposed so the
    provenance-aware search can reuse the identical text pipeline,
    keeping E4 an apples-to-apples comparison. *)
