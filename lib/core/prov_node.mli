(** Provenance node taxonomy (§3.3, §3.4).

    Every kind of history object — pages, page-visit instances,
    bookmarks, downloads, search terms, form submissions — is a node of
    one homogeneous graph, so queries never join heterogeneous tables. *)

type kind =
  | Page of { url : string; title : string }
      (** the unversioned page object *)
  | Visit of {
      url : string;
      title : string;
      transition : Browser.Transition.t;
      tab : int;
    }  (** one page-visit instance — the version node that breaks cycles (§3.1) *)
  | Bookmark of { title : string; url : string }
  | Download of { source_url : string; target_path : string }
  | Search_term of { query : string }
      (** a user-generated descriptor in the lineage of every page it
          produced (§3.3) *)
  | Form_submission of { fields : (string * string) list }

type t = {
  id : int;
  kind : kind;
  time : int option;  (** creation/open time where meaningful *)
  close_time : int option;  (** when a visit stopped being displayed (§3.2) *)
}

val kind_code : kind -> int
(** Stable small integer per constructor, for relational storage. *)

val kind_label : kind -> string

val text_terms : t -> string list
(** The node's searchable text: title+URL terms for pages/visits/
    bookmarks, query terms for search terms, file name terms for
    downloads, field values for forms. *)

val display : t -> string
(** Short human-readable description for query output. *)

val is_page : t -> bool
val is_visit : t -> bool
val is_download : t -> bool

val url_of : t -> string option
(** The URL carried by page/visit/bookmark/download nodes. *)
