(** Dynamically typed cell values, in the style of SQLite's storage
    classes. *)

type ty = Tint | Treal | Ttext | Tblob | Tbool

type t =
  | Null
  | Int of int
  | Real of float
  | Text of string
  | Blob of bytes
  | Bool of bool

val type_of : t -> ty option
(** [None] for [Null]. *)

val ty_name : ty -> string

val compare : t -> t -> int
(** Total order: Null < Bool < Int/Real (numerically interleaved) < Text
    < Blob.  Int and Real compare numerically against each other so an
    index over a numeric column behaves sensibly. *)

val equal : t -> t -> bool
val is_null : t -> bool

(** Checked projections; raise {!Errors.Type_mismatch} on the wrong
    constructor.  [Null] also raises — use {!is_null} first when a column
    is nullable. *)

val to_int : t -> int
val to_real : t -> float
(** Accepts [Int] too, widening. *)

val to_text : t -> string
val to_bool : t -> bool

(** Optional projections returning [None] on [Null]. *)

val to_int_opt : t -> int option
val to_text_opt : t -> string option

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val serialized_size : t -> int
(** Exact number of bytes {!Codec.write_value} will emit for this value;
    used for storage accounting. *)
