(** Row construction and field access helpers.

    A row is a [Value.t array] positionally matching its table's schema.
    The helpers here let call sites build and read rows by column name,
    which keeps schema evolution from silently shifting fields. *)

type t = Value.t array

val of_alist : Schema.t -> (string * Value.t) list -> t
(** Build a row from name/value pairs.  Missing columns become [Null]
    (validation will reject them if NOT NULL); unknown names raise
    {!Errors.No_such_column}; duplicates raise [Invalid_argument]. *)

val get : Schema.t -> t -> string -> Value.t
val int : Schema.t -> t -> string -> int
val int_opt : Schema.t -> t -> string -> int option
val real : Schema.t -> t -> string -> float
val text : Schema.t -> t -> string -> string
val text_opt : Schema.t -> t -> string -> string option
val bool : Schema.t -> t -> string -> bool

val set : Schema.t -> t -> string -> Value.t -> t
(** Functional update by column name. *)
