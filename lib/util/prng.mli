(** Deterministic pseudo-random number generation.

    Every source of randomness in the repository flows through this module
    so that datasets, workloads and experiments are reproducible
    bit-for-bit from a seed.  The generator is splitmix64, which has a
    64-bit state, passes BigCrush, and supports cheap stream splitting. *)

type t
(** A mutable generator.  Generators are cheap; split freely. *)

val create : int -> t
(** [create seed] makes a generator from an integer seed.  Equal seeds
    yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each subsystem (web generator, user model, query
    sampler…) its own stream so adding draws in one place does not
    perturb the others. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound).  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in \[lo, hi\] inclusive.  Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t lambda] draws from Exp(lambda); mean [1/lambda]. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a array -> 'a list
(** [sample_without_replacement t k arr] draws [min k (Array.length arr)]
    distinct elements. *)
