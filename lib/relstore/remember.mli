(** A string-keyed bloom filter: O(1) membership with no false
    negatives and a tunable false-positive rate.  Backs the capture
    layer's "have I seen this URL before" revisit detection. *)

type t

val create : ?false_positive_rate:float -> expected:int -> unit -> t
(** Sized for [expected] insertions at the target rate (default 0.01).
    Exceeding [expected] degrades the rate gracefully; it never loses
    an insertion. *)

val add : t -> string -> unit

val mem : t -> string -> bool
(** Never a false negative for an added key; false positives at roughly
    the configured rate while under the expected load. *)

val remember : t -> string -> bool
(** [mem] then [add] in one step: returns whether the key was (probably)
    already present, and records it either way. *)

val false_positive_rate : t -> float
(** The configured target rate, not a measurement. *)
