(** The synthetic web: a topically organized page/link graph with hubs,
    redirects, embedded images, download hosts and planted ambiguous
    terms.

    The generator is seeded and deterministic.  It records ground truth
    (which pages carry a planted ambiguous term, which files belong to
    which download host) so retrieval experiments can score themselves
    without human judgments. *)

type config = {
  n_topics : int;
  sites_per_topic : int;
  articles_per_site : int;
  vocab_size : int;
  title_terms : int;
  body_terms : int;
  links_per_article : int;
  cross_topic_link_prob : float;
  redirect_pages_per_topic : int;
  images_per_site : int;
  max_embeds_per_article : int;
  download_hosts_per_topic : int;
  files_per_download_host : int;
  ambiguous_terms : int;  (** planted terms, each shared by two topics *)
}

val default_config : config
(** 12 topics × 6 sites × 10 articles plus hubs/images/redirects/
    downloads ≈ 1,800 pages — a web comfortably larger than what one
    user visits in 79 days. *)

type ambiguity = {
  term : string;
  topic_a : int;
  topic_b : int;
  pages_a : int list;  (** pages of topic_a whose title carries [term] *)
  pages_b : int list;
}

type t

val generate : ?config:config -> seed:int -> unit -> t

val config : t -> config
val page_count : t -> int
val page : t -> int -> Page_content.t
(** Raises [Invalid_argument] on out-of-range ids. *)

val pages : t -> Page_content.t array
(** The underlying array; treat as read-only. *)

val topic_count : t -> int
val topic : t -> int -> Topic.t
val pages_of_topic : t -> int -> int list
(** Navigable pages of a topic (hubs, articles, download hosts). *)

val hubs_of_topic : t -> int -> int list
val download_hosts : t -> int list
val ambiguities : t -> ambiguity list

val resolve_redirects : t -> int -> int list
(** [resolve_redirects t id] is the redirect chain starting at [id]:
    [[id]] when not a redirect, else [id :: ... :: final]. Chains are
    acyclic by construction. *)
