(** Binary serialization for values, rows and strings.

    The format is deterministic: the same logical database always encodes
    to the same bytes, which makes storage-overhead measurements exact
    and reproducible.  Checksummed framing of these encodings, and
    recovery of a damaged log, live in {!Provkit_util.Frame}. *)

val write_value : Buffer.t -> Value.t -> unit
val read_value : string -> int ref -> Value.t

val write_string : Buffer.t -> string -> unit
(** Length-prefixed. *)

val read_string : string -> int ref -> string

val write_opt_int : Buffer.t -> int option -> unit
(** A tag byte, then a signed varint under [Some]: the optional fields
    of the provenance journal and event-trace records. *)

val read_opt_int : string -> int ref -> int option

val write_row : Buffer.t -> Value.t array -> unit
(** Arity-prefixed sequence of values. *)

val read_row : string -> int ref -> Value.t array

val read_count : string -> int ref -> int
(** A varint element count, validated against the bytes that remain:
    every encoded element occupies at least one byte, so a larger (or
    negative) count raises {!Errors.Corrupt} before it can size an
    allocation. *)
