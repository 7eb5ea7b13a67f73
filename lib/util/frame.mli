(** Checksummed record frames and longest-clean-prefix recovery: the one
    implementation behind every log this tree writes (provenance
    journals and WAL segments, the WAL manifest and snapshot, browser
    event traces, the telemetry journal).

    A frame is [[length][CRC-32 of the payload, 4 bytes LE][payload]].
    Framing every record lets recovery detect corruption anywhere in a
    file — a flipped byte, a torn write mid-file — rather than only a
    truncated tail, and stop at the last verified record. *)

type length =
  | Varint  (** LEB128 length: WAL segments, journals, manifest, snapshot, event traces *)
  | U32_le  (** 4-byte little-endian length: the [PTJ1] telemetry journal *)
(** How a frame encodes its payload length.  Each file format fixes one
    behind its magic; it is part of the format, not a choice. *)

val write : length -> Buffer.t -> string -> unit

val read : length -> string -> int ref -> string
(** The payload of the frame at [!pos], advancing [pos] past it.  Raises
    {!Varint.Corrupt} if the frame is truncated, overruns the input, or
    fails its checksum; [pos] then still points into the frame. *)

type 'a prefix = {
  records : 'a list;  (** decoded records of the clean prefix, in order *)
  clean_bytes : int;  (** length of the verified prefix, magic included *)
  clean : bool;  (** the whole image verified: no tail was cut *)
}

val walk : magic:string -> ?frames:length -> (string -> int ref -> 'a) -> string -> 'a prefix
(** Decode the records that follow [magic], stopping at the first one
    that is short, fails its checksum, or does not decode (the decoder
    raises {!Varint.Corrupt}).  With [frames], each record is a frame
    whose payload the decoder must consume exactly; without, records
    are bare encodings (the legacy v1 logs, where only a truncated tail
    is detectable).

    An image that is a proper prefix of [magic] (a torn create,
    including the empty image) has no records and is not clean.  Raises
    {!Varint.Corrupt} on an image that does not start with [magic]: it
    is some other file, not a damaged log. *)
