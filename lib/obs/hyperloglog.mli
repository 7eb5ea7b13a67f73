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

val registers : t -> int
(** [2^precision]. *)

val add_hash : t -> int64 -> unit
(** Feed one pre-hashed item.  The hash must be uniform over 64 bits —
    use {!hash_string} (or any mixer of splitmix64 quality); feeding
    raw small integers will wreck the estimate. *)

val add_string : t -> string -> unit
(** [add_hash t (hash_string s)]. *)

val hash_string : string -> int64
(** FNV-1a over the bytes, finalized with the splitmix64 mixer —
    deterministic across runs and platforms. *)

val add_buffer : t -> Buffer.t -> unit
(** [add_string t (Buffer.contents b)] without copying the bytes. *)

val estimate : t -> float
(** Estimated number of distinct items added.  Uses the standard
    HyperLogLog estimator with the linear-counting correction for
    small cardinalities, so the estimate is usable from 0 upward. *)

val error_bound : t -> float
(** The sketch's relative standard error, [1.04 / sqrt (registers t)].
    Tests assert estimates within a few multiples of this. *)

val merge : t -> t -> unit
(** [merge dst src] folds [src] into [dst] (pointwise register max).
    Raises [Invalid_argument] when precisions differ.  The result
    estimates the cardinality of the union of both streams. *)

val reset : t -> unit

val serialized : t -> string
(** Compact register image (1 byte per register, precision header),
    for embedding sketches in artifacts. *)
