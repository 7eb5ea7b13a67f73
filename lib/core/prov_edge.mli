(** Provenance relationship taxonomy (§3.1–§3.2).

    Edges point from cause to effect, so [Traversal.Backward] walks a
    node's lineage and [Forward] enumerates its consequences.  Every
    edge carries the time of the action that generated it — time-stamped
    edges are one of the paper's two cycle-breaking alternatives and
    power the §3.1 ablation. *)

type kind =
  | Link_traversal  (** clicked a link: source visit -> target visit *)
  | Typed_traversal
      (** location-bar navigation: previous visit -> new visit; the
          relationship Firefox drops (§3.2) *)
  | Bookmark_traversal  (** bookmark node -> resulting visit *)
  | Bookmarked_from  (** visit -> bookmark node created from it *)
  | Redirect  (** redirect hop: pre -> post *)
  | Embed  (** top-level visit -> embedded content visit *)
  | Form_source  (** visit showing the form -> form node *)
  | Form_result  (** form node -> result visit *)
  | Download_source  (** visit user downloaded from -> download node *)
  | Download_fetch  (** the fetch visit -> download node *)
  | Search_query  (** search-term node -> SERP visit *)
  | Searched_from  (** visit where the search was typed -> search-term node *)
  | Instance  (** page node -> one of its visit instances (§3.1) *)
  | Tab_spawn  (** opener tab's visit -> first visit of the new tab *)
  | Reload  (** previous instance -> the reloaded instance of a page *)
  | Same_time
      (** co-displayed visits (§3.2); directed first-opened -> later by
          the paper's ordering rule.  Contextual, not causal. *)

type t = { kind : kind; time : int }

val kind_code : kind -> int
val kind_of_code : int -> kind
(** Raises [Invalid_argument]. *)

val kind_name : kind -> string

val is_causal : kind -> bool
(** True for every kind except [Same_time]: lineage queries follow only
    causal edges. *)

val is_traversal : kind -> bool
(** Edges that carry an actual navigation step: everything except the
    structural [Instance] link and the derived [Same_time] relation.
    Connectivity and versioning analyses follow only these. *)

val all_kinds : kind list
