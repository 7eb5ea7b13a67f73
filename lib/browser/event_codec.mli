(** Binary persistence for browser event streams.

    Recording the raw event stream once and replaying it into different
    consumers is how the ablation experiments compare captures on
    identical browsing; this codec makes such traces portable files.
    The format is deterministic and self-delimiting; decoding tolerates
    a damaged tail (crash semantics identical to {!Core.Prov_log}).
    Storage format v2 checksums every event frame (CRC-32) so that a
    flipped byte or torn write anywhere is detected and decoding stops
    at the last verified event; v1 traces still load. *)

val encode_event : Buffer.t -> Event.t -> unit
val decode_event : string -> int ref -> Event.t
(** Raises {!Relstore.Errors.Corrupt} on malformed input. *)

val format_version : string -> int option
(** [Some 1] / [Some 2] from the magic, [None] otherwise. *)

val to_bytes : Event.t list -> string
(** The v2 (framed, checksummed) image. *)

val to_bytes_v1 : Event.t list -> string
(** The legacy unframed image, kept for overhead measurement and the
    compatibility tests. *)

val read_prefix : string -> Event.t Provkit_util.Frame.prefix
(** Decode a v1 or v2 trace up to its first record that fails
    verification; [clean] says whether anything was cut.  Raises
    {!Relstore.Errors.Corrupt} on an image without a whole trace magic. *)

val of_bytes : string -> Event.t list
(** {!read_prefix}'s events. *)

val save : path:string -> Event.t list -> unit
val load : path:string -> Event.t list

val replay : Event.t list -> (Event.t -> unit) list -> unit
(** Feed every event to every consumer, in order — e.g. a fresh
    [Places_db.apply_event] and a [Core.Capture.observer]. *)
