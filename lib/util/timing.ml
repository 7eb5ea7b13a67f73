(* Clock-source order (see timing.mli):

   1. CLOCK_MONOTONIC via the Monotonic_clock C stub — immune to
      wall-clock adjustment, the right base for latency histograms.
      The stub returns 0 on platforms where clock_gettime failed, which
      we treat as "unavailable" once at startup.
   2. Unix.gettimeofday, monotonized: the last returned value is
      remembered and never exceeded backwards, so an NTP step can stall
      this clock momentarily but never run it in reverse.  Intervals
      measured across an adjustment are distorted either way; they can
      no longer be negative. *)

let monotonic_available =
  match Monotonic_clock.now () with 0L -> false | _ -> true | exception _ -> false

let gtod_last = ref 0L

let gtod_ns () =
  let t = Int64.of_float (Unix.gettimeofday () *. 1e9) in
  if Int64.compare t !gtod_last > 0 then gtod_last := t;
  !gtod_last

let now_ns () = if monotonic_available then Monotonic_clock.now () else gtod_ns ()

let time_ms f =
  let t0 = now_ns () in
  let result = f () in
  let t1 = now_ns () in
  (result, Int64.to_float (Int64.sub t1 t0) /. 1e6)
