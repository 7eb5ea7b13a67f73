(** Provenance-preserving history expiration.

    Browsers expire old history; a provenance store cannot simply drop
    old rows without severing the lineage of everything derived from
    them (§2.4's forensics would dead-end at the expiry horizon).  The
    §4 privacy position — keep the data local, keep less of it — needs
    an expiry that is *summarizing* rather than destructive.

    The strategy reuses the §3.1 observation behind {!Versioning}: old
    visit *instances* carry per-event detail (exact times, tabs,
    transitions), but their page-level structure can be summarized.
    [expire] drops visit instances older than the cutoff and replaces
    the traversals among them with page→page [Summary] edges (stored as
    time-stamped {!Prov_edge.Link_traversal} rows between page nodes),
    so reachability questions — "do downloads descend from this page?",
    "does this file's lineage reach a recognizable page?" — keep working
    across the horizon while the per-visit detail is forgotten. *)

type outcome = {
  store : Prov_store.t;  (** the expired store (fresh; input untouched) *)
  expired_visits : int;
  summary_edges : int;  (** page→page edges standing in for them *)
  kept_nodes : int;
}

val expire : cutoff:int -> Prov_store.t -> outcome
(** Drop displayed and non-displayed visit instances whose open time is
    before [cutoff].  Pages, search terms, bookmarks, downloads and
    forms are never dropped (they are small and are the recognizable
    anchors); edges incident to expired visits are summarized at page
    level.  Edges among kept nodes are preserved verbatim. *)
