(** BM25 relevance (k1 = 1.2, b = 0.75) over an {!Inverted_index}. *)

val idf : Inverted_index.t -> string -> float
(** Smoothed idf: [log (1 + (N - df + 0.5) / (df + 0.5))]; 0 when the
    index is empty. *)

type sums
(** One query's per-document scores. *)

val with_scores : Inverted_index.t -> terms:string list -> (sums -> 'a) -> 'a
(** [with_scores index ~terms k] makes one pass over the query's
    postings and hands [k] every document's score.  Only documents
    holding a query term score, and every score is positive: each term
    adds its positive idf times a positive tf weight.

    Scores are summed into a {!Provkit_util.Scratch} of this domain, by
    doc id, so they are valid only until [k] returns.  Each doc's score
    sums the distinct query terms in ascending order, starting from
    [0.0 +. _], so the floats do not depend on the order of [terms]; a
    term repeated in the query counts that many times. *)

val score : sums -> int -> float
(** O(1): a document's score, 0.0 for one that holds no query term
    (any id [>= 0]). *)

val top : sums -> int -> (int * float) list
(** The (at most) [k] documents with the highest scores, descending;
    ties broken by ascending doc id for determinism.  Picked with a
    bounded heap, so only [k] of them are listed. *)

val scores : ?limit:int -> Inverted_index.t -> terms:string list -> (int * float) list
(** [top] over [with_scores]: the [limit] (default: all) best
    documents. *)
