(** A small ranked-search facade: index named documents, search with a
    free-text query. *)

type t

type result = { doc : int; score : float }

val create : ?scorer:Scorer.t -> unit -> t
(** [scorer] defaults to {!Scorer.default_bm25}. *)

val index_terms : t -> int -> string list -> unit
(** Index pre-tokenized terms (callers that mix title/URL/body fields
    tokenize each field themselves). *)

val query : ?limit:int -> t -> string -> result list
(** Parse the query through the same term pipeline and rank. *)

val query_terms : ?limit:int -> t -> string list -> result list
(** Rank against pre-normalized terms (no tokenization applied). *)
