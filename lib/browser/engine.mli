(** The browser engine: executes user actions against the synthetic web,
    maintains tab state, assigns visit ids, auto-follows redirects,
    auto-loads embedded content, and broadcasts the {!Event} stream to
    observers (the Places baseline subscribes by default; the provenance
    capture layer subscribes on top). *)

type t

type visit_info = {
  visit_id : int;
  page : int option;
  url : Webmodel.Url.t;
  title : string;
  tab : int;
  time : int;
  transition : Transition.t;
}

val create : web:Webmodel.Web_graph.t -> search:Webmodel.Search_engine.t -> unit -> t

val subscribe : t -> (Event.t -> unit) -> unit
(** Observers run in subscription order on every event. *)

val web : t -> Webmodel.Web_graph.t
val places : t -> Places_db.t
val event_log : t -> Event.t list
(** Every event emitted so far, oldest first. *)

val visit_info : t -> int -> visit_info
(** Raises [Not_found] on unknown visit ids. *)

(** {2 Tabs} *)

val open_tab : t -> time:int -> ?opener:int -> unit -> int
val close_tab : t -> time:int -> int -> unit
(** Emits a {!Event.Close} for the tab's displayed visit, then
    [Tab_closed]. *)

val open_tabs : t -> int list
val current_visit : t -> int -> visit_info option

(** {2 Navigation} *)

val visit_typed : t -> time:int -> tab:int -> int -> visit_info
(** The user types/autocompletes the URL of a web page.  The emitted
    event still carries the previous visit as referrer — it is Places
    that discards it. *)

val visit_link : t -> time:int -> tab:int -> int -> visit_info
(** Follow a link from the tab's current page to a target page id. *)

val visit_bookmark : t -> time:int -> tab:int -> bookmark:int -> visit_info
(** Navigate via a stored bookmark.  Raises [Not_found] on unknown
    bookmark ids. *)

val reload : t -> time:int -> tab:int -> visit_info
(** Reload the tab's current page: a fresh visit instance of the same
    page (§3.1's versioning applies to reloads too).  Raises
    [Invalid_argument] when the tab shows nothing or shows a SERP. *)

(** All navigations: if the target is a redirect page the engine follows
    the chain, emitting one visit per hop; embedded images of the final
    page are fetched as [Embed] visits.  The returned info is the final
    top-level (content) visit. *)

(** {2 Search} *)

val search : t -> time:int -> tab:int -> string -> visit_info * Webmodel.Search_engine.result list
(** Run a query: emits the SERP visit (a typed navigation to the
    engine's result URL) plus a {!Event.Search}, and returns the results
    the SERP displays. *)

val click_result : t -> time:int -> tab:int -> int -> visit_info
(** Click a result on the SERP currently displayed in [tab] (a [Link]
    visit with the SERP as referrer). *)

(** {2 Downloads, bookmarks, forms} *)

val download : t -> time:int -> tab:int -> file_page:int -> int * visit_info
(** Download a file linked from the current page; returns
    [(download_id, fetch_visit)]. *)

val add_bookmark : t -> time:int -> tab:int -> int
(** Bookmark the tab's current page; returns the bookmark id.  Raises
    [Invalid_argument] when the tab has no current visit. *)

val bookmarks : t -> (int * int option * string) list
(** [(bookmark_id, page, title)], insertion order. *)

val submit_form : t -> time:int -> tab:int -> fields:(string * string) list -> result_page:int -> visit_info
(** Submit a form on the current page whose action leads to
    [result_page] (e.g. a site-local search). *)
