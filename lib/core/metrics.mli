(** Retrieval-quality metrics for the use-case experiments.

    The paper argues its queries return the right answers anecdotally;
    with a synthetic workload we have recorded ground truth and can
    score properly. *)

val rank_of : equal:('a -> 'a -> bool) -> 'a -> 'a list -> int option
(** 1-based rank of an item in a result list. *)

val reciprocal_rank : int option -> float
(** [1/rank]; 0 for misses. *)

val mrr : int option list -> float
(** Mean reciprocal rank over queries. *)

val hit_at : int -> int option list -> float
(** Fraction of queries whose rank is within [k]. *)
