(** Descriptive statistics over float samples, used by the experiment
    harness for latency and size distributions. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 on lists shorter than 2. *)

val percentile : float -> float list -> float
(** [percentile p xs] for [p] in \[0,100\] with linear interpolation
    between order statistics.  Raises [Invalid_argument] on empty input. *)

val summarize : float list -> summary
(** Full summary.  Raises [Invalid_argument] on empty input. *)

val histogram : buckets:float list -> float list -> (float * int) list
(** [histogram ~buckets xs] counts samples [<=] each bucket upper bound,
    cumulative-exclusive: each sample lands in the first bucket whose
    bound is >= it; samples above the last bound are dropped into an
    implicit [infinity] bucket appended to the result. *)
