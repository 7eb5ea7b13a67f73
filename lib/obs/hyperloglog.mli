(** HyperLogLog cardinality sketches — the NDV (number of distinct
    values) estimator behind the statistics catalog, sibling to the
    HDR histograms in {!Metrics}.

    A sketch with precision [p] keeps [2^p] one-byte registers and
    estimates the number of distinct items added with a relative
    standard error of about [1.04 / sqrt (2^p)] — ~1.6 % at the
    default [p = 12] (4 KiB), independent of the true cardinality.
    Adding is O(1) and allocation-free; estimating is O(2^p). *)

type t

val create : ?precision:int -> unit -> t
(** [create ~precision ()] builds an empty sketch with [2^precision]
    registers.  [precision] defaults to 12 and must be in \[4, 18\]
    (raises [Invalid_argument] otherwise). *)

val precision : t -> int

val add_hash : t -> int64 -> unit
(** Feed one pre-hashed item.  The hash must be uniform over 64 bits —
    use a mixer of splitmix64 quality, as {!add_buffer} does; feeding
    raw small integers will wreck the estimate. *)

val add_buffer : t -> Buffer.t -> unit
(** Hash the buffer's bytes and feed the hash, without copying them. *)

val estimate : t -> float
(** Estimated number of distinct items added.  Uses the standard
    HyperLogLog estimator with the linear-counting correction for
    small cardinalities, so the estimate is usable from 0 upward. *)
