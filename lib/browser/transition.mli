(** Firefox Places visit transition types (§3: "Firefox stores a table
    of transitions, the actions that load a particular page").

    Codes mirror Places' [TRANSITION_*] constants for the kinds Firefox 3
    defines (1-8); form-submit and reload extend the table. *)

type t =
  | Link  (** user followed a link *)
  | Typed  (** user typed the URL in the location bar / autocompleted *)
  | Bookmark  (** user clicked a bookmark *)
  | Embed  (** inner content loaded by a top-level page *)
  | Redirect_permanent
  | Redirect_temporary
  | Download  (** the visit that fetched a downloaded file *)
  | Framed_link  (** link inside an embedded frame *)
  | Form_submit  (** page produced by submitting a form *)
  | Reload  (** the user reloaded the displayed page *)

val to_code : t -> int
val of_code : int -> t
(** Raises [Invalid_argument] on unknown codes. *)

val name : t -> string

val hidden : t -> bool
(** True for embeds and redirect hops: the visits Places marks [hidden]
    and keeps out of history search.  A page all of whose visits are
    hidden is hidden. *)

val displayed : t -> bool
(** True for visits the user saw as a top-level page: everything but
    embeds and downloads (a redirect hop is displayed, if briefly). *)

val all : t list [@@provlint.allow "unused-export"]
(** Every transition.  No program enumerates them; the codec and
    matview tests do, so a new constructor cannot slip past them. *)
