(** LEB128-style variable-length integers with zigzag signing: the
    integer encoding of every on-disk format ([Relstore.Codec], the
    journals, {!Frame} lengths) and of the size-accounting paths. *)

exception Corrupt of string
(** Raised by every decoder of those formats on malformed or truncated
    input ([Relstore.Errors.Corrupt] is this exception). *)

val corrupt : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Format a message and raise {!Corrupt}. *)

val zigzag : int -> int
(** Map signed to unsigned: 0,-1,1,-2,2… -> 0,1,2,3,4… *)

val unzigzag : int -> int

val size_unsigned : int -> int
(** Encoded byte length of a non-negative integer. *)

val size_signed : int -> int
(** Encoded byte length after zigzag. *)

val write_unsigned : Buffer.t -> int -> unit
val write_signed : Buffer.t -> int -> unit

val read_unsigned : string -> int ref -> int
(** [read_unsigned s pos] decodes at [!pos], advancing [pos].  Raises
    {!Corrupt} on truncated input. *)

val read_signed : string -> int ref -> int
