(** The flight recorder: an always-on, bounded incident log that turns
    crash tests into explainable postmortems.

    {!record} captures, at the moment of failure, the open-span
    ancestry, the recent closed spans, the full metrics snapshot and
    headline, and any registered process context.  Standard triggers:
    an injected [Faulty_io] fault firing ({!install_fault_hook}), a WAL
    recovery truncation ([Prov_log]), and an uncaught [provctl]
    exception.

    Recording is deliberately {b not} gated on the [PROV_OBS] switch:
    incidents are rare, so there is no hot path, and a crash with
    observability off should still leave a postmortem. *)

type incident = {
  seq : int;  (** 1-based, monotonic across the process *)
  reason : string;
  attrs : (string * string) list;
  ancestry : Trace.open_span list;  (** open frames at capture, innermost first *)
  spans : Trace.span list;  (** recent closed spans, oldest first, capped at 64 *)
  snapshot : Metrics.snapshot;
  headline : string;
  context : (string * string) list;
  dedup : string option;  (** merge key: repeats fold into one ring slot *)
  mutable repeats : int;  (** occurrences merged beyond the first *)
}

val record : ?attrs:(string * string) list -> ?dedup:string -> string -> unit
(** Capture an incident.  Also ticks {!Names.flight_incidents}.

    With [dedup], a repeated occurrence whose key matches an incident
    still in the ring bumps that incident's [repeats] instead of
    consuming another of the 16 slots — so an alert rule firing on
    every evaluation cannot wash the rest of a postmortem away.
    {!recorded} and the metric still count every occurrence. *)

val recorded : unit -> int
(** Total incidents recorded by this process, including ones that have
    rolled off the bounded ring (tests assert on deltas of this). *)

val incidents : unit -> incident list
(** Kept incidents, oldest first (at most 16). *)

val latest : unit -> incident option

val clear : unit -> unit [@@provlint.allow "unused-export"]
(** Drop kept incidents.  {!recorded} keeps counting.
    Test seam: tests empty the process-global incident ring between cases. *)

val set_context : (string * string) list -> unit
(** Merge key/value context (seed, argv, config) into every future
    incident; later values for the same key win. *)

val to_json : incident -> string
(** One JSON object:
    [{"postmortem":1,"seq":..,"reason":..,"attrs":{..},"context":{..},
      "open_spans":[..],"spans":[<v2 span lines>..],"headline":..,
      "metrics":<Metrics.to_json>}]. *)

val dump : incident -> path:string -> unit
(** Write {!to_json} (newline-terminated) to a file. *)

val install_fault_hook : unit -> unit
(** Route [Provkit_util.Faulty_io] fault applications into {!record}
    (reason ["io.fault.injected"], attr [fault=<spec>]). *)

val uninstall_fault_hook : unit -> unit [@@provlint.allow "unused-export"]
(** Test seam: tests detach the hook they installed. *)
