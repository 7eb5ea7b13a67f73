(** The durable telemetry journal: CRC-framed records appended on every
    {!Timeseries} point and every {!Alert} transition, replayable so
    [provctl top --since <file>] and the alert engine see history
    across restarts.

    On-disk format: a [PTJ1] magic header, then per record a
    {!Provkit_util.Frame} with a 4-byte LE payload length, a 4-byte LE
    CRC-32 of the payload, and the payload (tag byte, then the point
    snapshot or the transition).  {!replay} runs the same clean-prefix
    walker as WAL recovery, so a crash-truncated or corrupted tail is
    detected (flight incident, deduplicated per path, plus
    {!Names.telemetry_journal_truncations}) and {!open_} cuts it away
    before appending. *)

type t
(** An open journal (append handle). *)

type replay = {
  rp_points : Timeseries.point list;  (** oldest first *)
  rp_transitions : Alert.transition list;  (** oldest first *)
  rp_records : int;  (** frames decoded from the clean prefix *)
  rp_truncated : bool;  (** a torn or corrupt tail was cut away *)
  rp_clean_bytes : int;  (** verified prefix length, magic included *)
}

val open_ : path:string -> t
(** Open for appending, creating the file (with its magic header) if
    missing.  An existing file is recovered first: the torn tail, if
    any, is truncated back to the clean prefix, exactly once.  A header
    that is a proper prefix of the magic (a torn create) is rewritten;
    a file that is not a journal at all raises
    {!Provkit_util.Varint.Corrupt} and is left untouched. *)

val path : t -> string

val append_point : t -> Timeseries.point -> unit
(** Append one snapshot frame and flush.  Ticks
    {!Names.telemetry_journal_appends}.  No-op after {!close}. *)

val append_transition : t -> Alert.transition -> unit

val close : t -> unit
(** Idempotent. *)

val attach : t -> unit
(** Wire the journal into the live stream: a {!Timeseries} observer
    appending every recorded point, and an {!Alert} transition hook
    appending every fire/resolve.  Detach by
    {!Timeseries.clear_observers} / {!Alert.clear_transition_hooks}. *)

val replay : path:string -> replay
(** Decode the journal's clean prefix (a missing or empty file reads as
    empty; one that is not a journal raises
    {!Provkit_util.Varint.Corrupt}).
    Ticks {!Names.telemetry_journal_replays}; a torn tail additionally
    ticks {!Names.telemetry_journal_truncations} and records a flight
    incident (deduplicated by path). *)

val replay_into : Timeseries.t -> path:string -> replay
(** {!replay}, then {!Timeseries.push} each recovered point into the
    ring — push, not record, so replay never re-triggers the observers
    that wrote the journal. *)
