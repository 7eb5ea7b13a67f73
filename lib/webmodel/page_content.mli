(** Synthetic web pages: the unit of content the browser visits. *)

type kind =
  | Article  (** ordinary content page *)
  | Hub  (** site front page, link-dense *)
  | Redirect  (** pure redirect (tracking/shortener); browser never shows it *)
  | Image  (** embedded resource, loaded by articles, never navigated to *)
  | Download_host  (** page offering downloadable files *)
  | File  (** a downloadable payload *)

type t = {
  id : int;
  url : Url.t;
  title : string;
  body : string list;  (** body terms *)
  topic : int;
  kind : kind;
  links : int array;  (** navigable outlink page ids *)
  redirect_to : int option;  (** target for [Redirect] pages *)
  embeds : int array;  (** [Image] page ids loaded inline *)
}

val text_terms : t -> string list
(** Terms a search engine indexes for this page: normalized title, URL
    and body terms (title terms counted twice as a field boost). *)

val is_navigable : t -> bool
(** Users can end up *viewing* this page (everything but [Image]). *)
