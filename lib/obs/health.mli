(** The health aggregator: named checks composed into one
    [Ok]/[Degraded]/[Failing] verdict with per-check detail, surfaced
    as [provctl health].

    Subsystems register the checks only they can judge — the segmented
    WAL its manifest sanity, the stats catalog its freshness, provctl
    the cache/matview epoch consistency — and this module itself
    contributes the built-in {!Names.health_alerts_clear} check over
    the alert engine (open critical alert → [Failing], open warning →
    [Degraded]).

    Check names are dotted ["health.<subsystem>.<what>"] constants from
    {!Names}; the obs-names lint enforces registration for lib/bin
    call sites. *)

type verdict = Ok | Degraded | Failing

type check_result = {
  cr_name : string;
  cr_verdict : verdict;
  cr_detail : string;  (** one human-readable line of evidence *)
}

type report = {
  h_verdict : verdict;  (** worst verdict across all checks *)
  h_checks : check_result list;  (** registration order *)
}

val verdict_name : verdict -> string
val worst : verdict -> verdict -> verdict

val register : string -> (unit -> verdict * string) -> unit
(** Register (or replace in place) a named check.  The function runs on
    every {!run}; an exception it raises reads as [Failing] with the
    exception text as detail. *)

val unregister : string -> unit [@@provlint.allow "unused-export"]
(** Test seam: tests remove the checks they registered in the process-global registry. *)

val run : unit -> report

val render : report -> string
(** Aligned check/verdict/detail table plus an [overall:] line. *)

val to_json : report -> string
(** [{"verdict":"ok","checks":[{"name":..,"verdict":..,"detail":..}..]}]. *)

val exit_code : report -> int
(** 1 on [Failing], 0 otherwise — the [provctl health] exit status. *)
