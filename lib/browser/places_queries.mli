(** The §3.3 pain, implemented: answering provenance-flavoured questions
    directly against the Places schema requires joining heterogeneous
    tables through URLs and ids — "querying a bookmark relationship may
    require the user to join heterogeneous tables or even databases".

    Each function here is the relational counterpart of a one-hop graph
    query in [Core]; experiment E15 compares the two formulations on the
    same history. *)

type bookmark_origin = {
  bookmark_title : string;
  page_url : string;
  reached_from_search : string option;
      (** the typed input that led (transitively, via from_visit) to the
          bookmarked page's first visit, when one can be recovered *)
}

val bookmarks_reached_from_search : Places_db.t -> bookmark_origin list
(** "Which of my bookmarks did I originally find through a search?" —
    joins moz_bookmarks -> moz_places -> moz_historyvisits (walking
    from_visit chains) -> moz_places -> moz_inputhistory. *)

type download_origin = {
  download_target : string;
  source_url : string;
  referrer_url : string option;
      (** the page the fetch visit's from_visit chain points at, if the
          chain survives Places' information loss *)
}

val downloads_with_referrers : Places_db.t -> download_origin list
(** "Where did each download come from?" — joins moz_downloads (by
    source URL) -> moz_places -> moz_historyvisits -> from_visit ->
    moz_places. *)

val dead_end_rate : Places_db.t -> float
(** Fraction of non-hidden visits with no [from_visit] — the paper's
    "sparsely connected metadata": every typed/bookmark navigation is a
    dead end to Places. *)
