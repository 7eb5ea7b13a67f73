(** Text index over provenance nodes.

    Indexes the text-bearing node kinds — pages (title + URL), search
    terms (their queries) and bookmarks — so queries can find textual
    seeds in the graph.  Visits are deliberately not indexed separately:
    they share their page's text, and scoring happens on page nodes. *)

type t

val build : Prov_store.t -> t
(** Snapshot index of the store's current nodes. *)

val store : t -> Prov_store.t

val search : ?limit:int -> t -> string -> (int * float) list
(** Ranked node ids ([limit] defaults to 20). *)

val with_scores : t -> string -> (Textindex.Scorer.sums -> 'a) -> 'a
(** [with_scores t query k] scores every node against the query in one
    pass and hands the scores to [k], valid until [k] returns: its top
    hits ({!Textindex.Scorer.top}) and, in O(1), any node's relevance
    (0.0 for a node that matches no term or is not indexed).  Lets
    time-contextual search score candidate pages that come from the
    temporal neighborhood rather than from the top of the text
    ranking, off the pass that found the top. *)

val distinct_terms : t -> Prov_node.t -> string list
(** The node's distinct {!Prov_node.text_terms}, ascending.  Read from
    the index when it was built from this very record ([==]); a record
    the store has replaced since (a page retitled after the {!build})
    or never indexed is tokenized afresh. *)

val idf : t -> string -> float
(** Corpus rarity of a term within the user's own history — used to pick
    distinctive personalization terms. *)
