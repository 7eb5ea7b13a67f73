(** Monotonic timing for query budgets, latency histograms and
    experiment measurements.

    Clock-source fallback order:
    + [CLOCK_MONOTONIC] (via the [Monotonic_clock] C stub) — a truly
      monotonic clock, immune to NTP steps and manual clock changes;
    + [Unix.gettimeofday], monotonized by clamping to the last value
      returned — a wall clock that can pause under a backwards
      adjustment but can never run in reverse, so interval measurements
      (and the histogram samples built from them) are never negative.

    The source is chosen once at startup; all of the repository's
    timing flows through {!now_ns} so every consumer gets the same
    guarantee. *)

val now_ns : unit -> int64
(** Nanoseconds on a monotonic (never-decreasing) clock.  The absolute
    epoch is unspecified — only differences are meaningful. *)

val time_ms : (unit -> 'a) -> 'a * float
(** [time_ms f] runs [f ()] and returns its result with elapsed
    milliseconds. *)
