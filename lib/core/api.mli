(** The provenance-aware browser, assembled.

    A one-stop facade over capture + store + indexes + the four use-case
    queries, for applications that just want a provenance-aware browser
    session.  Lower-level control lives in the individual modules. *)

type t

val attach : ?capture_config:Capture.config -> Browser.Engine.t -> t
(** Start capturing provenance from a browser engine.  Attach before
    browsing begins: only subsequent events are captured. *)

val engine : t -> Browser.Engine.t
val store : t -> Prov_store.t
val time_index : t -> Time_index.t
val capture : t -> Capture.t

val text_index : t -> Prov_text_index.t
(** The text index over provenance nodes; built lazily on first use and
    after each {!refresh}. *)

val refresh : t -> unit [@@provlint.allow "unused-export"]
(** Re-index after browsing added history.  Queries call this
    automatically when the store grew by more than 10 % since the last
    build.
    Only tests force the rebuild; it goes with the lazy 10% rebuild rule (ROADMAP item 3). *)

(** {2 The four §2 use cases} *)

val contextual_history_search :
  ?budget:Query_budget.t -> ?limit:int -> t -> string -> Contextual_search.response

val personalize_web_search :
  ?budget:Query_budget.t -> t -> string -> Personalize.expansion

val time_contextual_search :
  ?budget:Query_budget.t ->
  ?limit:int ->
  t ->
  query:string ->
  context:string ->
  Time_search.response

val downloads_from_page : ?budget:Query_budget.t -> t -> url:string -> Lineage.descendants
(** All downloads descending from the page with this URL.  Unknown URLs
    yield an empty result. *)

(** {2 Conveniences} *)

val page_title : t -> int -> string
(** Title of a page node ("" for non-pages). *)

val page_url : t -> int -> string

val persist : t -> Relstore.Database.t
(** Snapshot the provenance store into its relational image. *)
