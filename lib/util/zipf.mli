(** Zipfian (power-law) samplers.

    Web vocabulary, page popularity and revisit behaviour are all heavy
    tailed; the workload generator draws them from this module. *)

type t
(** A precomputed Zipf distribution over ranks [0 .. n-1]. *)

val create : n:int -> s:float -> t
(** [create ~n ~s] builds a distribution with [n] ranks and exponent [s]
    (typical web exponents: 0.8 – 1.2).  Requires [n >= 1], [s >= 0]. *)

val sample : t -> Prng.t -> int
(** Draw a rank; rank 0 is most probable.  O(log n) by binary search on
    the precomputed CDF. *)

val probability : t -> int -> float [@@provlint.allow "unused-export"]
(** [probability t k] is the mass of rank [k].  No program reads it: it
    is the reference the sampler's frequency test compares against. *)
