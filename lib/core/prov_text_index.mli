(** Text index over provenance nodes.

    Indexes the text-bearing node kinds — pages (title + URL), search
    terms (their queries) and bookmarks — so queries can find textual
    seeds in the graph.  Visits are deliberately not indexed separately:
    they share their page's text, and scoring happens on page nodes. *)

type t

val build : Prov_store.t -> t
(** Snapshot index of the store's current nodes. *)

val refresh : t -> unit
(** Re-index after the store has grown. *)

val store : t -> Prov_store.t

val search : ?limit:int -> t -> string -> (int * float) list
(** Ranked node ids ([limit] defaults to 20). *)

val score : t -> terms:string list -> node:int -> float
(** Text relevance of one indexed node to a term bag (0.0 for nodes that
    are not indexed).  Lets time-contextual search score candidate pages
    that come from the temporal neighborhood rather than from the top of
    the text ranking.  Staged: [score t ~terms] looks the terms up once
    for all the nodes it then scores. *)

val distinct_terms : t -> Prov_node.t -> string list
(** The node's distinct {!Prov_node.text_terms}, ascending.  Read from
    the index when it was built from this very record ([==]); a record
    the store has replaced since (a page retitled after the last
    {!refresh}) or never indexed is tokenized afresh. *)

val idf : t -> string -> float
(** Corpus rarity of a term within the user's own history — used to pick
    distinctive personalization terms. *)

val indexed_count : t -> int
