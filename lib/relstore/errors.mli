(** Errors raised by the relational storage engine. *)

exception Type_mismatch of string
(** A value did not match the declared column type. *)

exception Constraint_violation of string
(** NOT NULL or UNIQUE violated. *)

exception No_such_table of string
exception No_such_column of string
exception No_such_row of int

exception Arity_mismatch of string
(** A key's length did not match the column list it is matched against
    (e.g. {!Table.find_by} given two columns but one value). *)

exception Corrupt of string
(** Deserialization failed.  The same exception as
    {!Provkit_util.Varint.Corrupt}, which the shared varint and frame
    decoders raise. *)

val type_mismatch : ('a, Format.formatter, unit, 'b) format4 -> 'a
val constraint_violation : ('a, Format.formatter, unit, 'b) format4 -> 'a
val arity_mismatch : ('a, Format.formatter, unit, 'b) format4 -> 'a
val corrupt : ('a, Format.formatter, unit, 'b) format4 -> 'a
