(** The homogeneous provenance graph store (§3.4): one graph, every
    history object a node, every relationship an edge.

    This is the in-memory form all queries run against.  {!Prov_schema}
    round-trips it through the relational engine for persistence and
    storage accounting. *)

type t

val create : unit -> t

val graph : t -> (Prov_node.t, Prov_edge.t) Provgraph.Digraph.t
(** The underlying graph (shared, live). *)

(** {2 Node creation}

    Pages and search terms are deduplicated (by URL and query text);
    visits, bookmarks, downloads and forms always create fresh nodes. *)

val add_page : t -> url:string -> title:string -> time:int -> int
val add_visit :
  t ->
  engine_visit:int ->
  url:string ->
  title:string ->
  transition:Browser.Transition.t ->
  tab:int ->
  time:int ->
  int
(** Creates (or refreshes) the page node and the [Instance] edge
    page -> visit. *)

val close_visit : t -> engine_visit:int -> time:int -> unit
(** Record when the visit stopped being displayed.  Unknown ids are
    ignored (the engine may close SERP visits captured before the
    observer attached). *)

val add_bookmark : t -> engine_bookmark:int -> url:string -> title:string -> time:int -> int
val add_download :
  t -> engine_download:int -> source_url:string -> target_path:string -> time:int -> int
val add_search_term : t -> query:string -> time:int -> int
val add_form : t -> engine_form:int -> fields:(string * string) list -> time:int -> int

val add_edge : t -> src:int -> dst:int -> Prov_edge.kind -> time:int -> unit

(** {2 Mutation observation (incremental persistence)}

    {!Prov_log} mirrors store mutations into an append-only journal.
    The observer fires on every node insert/update, edge insert and
    close stamp — but not on {!restore_node}/{!restore_edge}, which are
    the replay path itself. *)

type mutation =
  | Add_node of Prov_node.t  (** inserted or payload-replaced *)
  | Add_edge of { src : int; dst : int; edge : Prov_edge.t }
  | Close_node of { id : int; time : int }
(** Also the journal's record type ({!Prov_log.op}). *)

val set_observer : t -> (mutation -> unit) -> unit
(** At most one observer; setting replaces. *)

(** {2 Restoration (persistence layer only)}

    Re-insert nodes/edges with their original ids when loading from the
    relational image.  [restore_node] refreshes the URL/query lookup
    tables; engine-id mappings are not part of the persistent image. *)

val restore_node : t -> Prov_node.t -> unit
val restore_edge : t -> src:int -> dst:int -> Prov_edge.t -> unit

val iter_contents : t -> (mutation -> unit) -> unit
(** A canonical mutation stream equivalent to the store's current
    contents: every node (close time baked in) in ascending id order,
    then every edge in adjacency order.  Applying it to an empty store
    reproduces this one. *)

(** {2 Lookup} *)

val node : t -> int -> Prov_node.t
(** Raises [Not_found]. *)

val node_opt : t -> int -> Prov_node.t option
val page_of_url : t -> string -> int option
val visit_node : t -> int -> int option
(** By engine visit id. *)

val bookmark_node : t -> int -> int option
val download_node : t -> int -> int option
val term_node : t -> string -> int option

(** {2 Page facts}

    All but {!visits_of_page} are kept current by every edge insert,
    live or restored, so each is O(1) and never rescans the graph. *)

val page_of_visit : t -> int -> int
(** The page node this visit instantiates: the source of its first
    [Instance] edge; -1 for a node that instantiates none. *)

val visits_of_page : t -> int -> int list
(** Visit instances of a page node, ascending node id (one entry per
    [Instance] edge).  Walks the page's adjacency list. *)

val page_visit_count : t -> int -> int
(** [List.length (visits_of_page t page)]. *)

val page_displayed_visit_count : t -> int -> int
(** Visit instances the user saw ({!Browser.Transition.displayed}) —
    the "user is likely to recognize" signal of §2.4. *)

val page_typed : t -> int -> bool
(** True when a typed visit instantiates this page (as its first
    page). *)

val page_hidden : t -> int -> bool
(** True when the page has visit instances and every one is an embed or
    a redirect hop ({!Browser.Transition.hidden}) — the pages Places
    marks [hidden] and keeps out of history search results.  Non-page
    nodes are not hidden. *)

(** {2 Enumeration and statistics} *)

val nodes_of_kind : t -> (Prov_node.t -> bool) -> int list
val node_count : t -> int
val edge_count : t -> int

type stats = {
  nodes_total : int;
  edges_total : int;
  nodes_by_kind : (string * int) list;
  edges_by_kind : (string * int) list;
}

val stats : t -> stats
val pp_stats : Format.formatter -> t -> unit
