(** Topics: named term vocabularies with Zipfian usage.

    The synthetic web is organized topically (wine, gardening, film…);
    page titles and bodies draw from their topic's vocabulary, which is
    what gives provenance-aware search something semantically coherent
    to exploit, and what lets us plant ambiguous terms across topics for
    the "rosebud" disambiguation experiments. *)

type t

val generate :
  rng:Provkit_util.Prng.t -> id:int -> name:string -> vocab_size:int -> t
(** Vocabulary = the topic name + [vocab_size] pronounceable synthetic
    words, with a Zipf(1.0) usage distribution. *)

val id : t -> int
val name : t -> string

val sample_term : t -> Provkit_util.Prng.t -> string
(** Zipf-weighted term draw. *)

val sample_terms : t -> Provkit_util.Prng.t -> int -> string list

val add_term : t -> string -> unit
(** Inject a term (e.g. a planted ambiguous word) into the vocabulary at
    tail rank.  Generators that need a planted term to appear often put
    it into page titles explicitly rather than relying on sampling. *)

val default_names : string array
(** A palette of human-readable topic names ("wine", "gardening",
    "film", "travel", …) used by generators and examples. *)
