(** Relevance scoring functions over an {!Inverted_index}. *)

type t = Tf_idf | Bm25 of { k1 : float; b : float }

val default_bm25 : t
(** BM25 with the conventional k1 = 1.2, b = 0.75. *)

val idf : Inverted_index.t -> string -> float
(** Smoothed idf: [log (1 + (N - df + 0.5) / (df + 0.5))]; 0 when the
    index is empty. *)

val score_document : t -> Inverted_index.t -> terms:string list -> doc:int -> float
(** Score of one document against a bag of query terms.  Staged:
    [score_document s index ~terms] looks the terms and their idf up
    once, and the function it returns scores documents against them. *)

val scores : ?limit:int -> t -> Inverted_index.t -> terms:string list -> (int * float) list
(** The [limit] (default: all) documents with the highest scores,
    descending; ties broken by ascending doc id for determinism.  Only
    documents holding a query term score, and every score is positive:
    each term adds its positive idf times a positive tf weight.

    Scores are summed into a {!Provkit_util.Scratch} of this domain, by
    doc id, and only the top [limit] hits are picked from it.  Each doc's score sums
    the distinct query terms in ascending order, starting from
    [0.0 +. _], so the floats do not depend on the order of [terms]. *)
