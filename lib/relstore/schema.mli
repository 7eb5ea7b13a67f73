(** Table schemas.

    Every table has an implicit integer row id (like SQLite's rowid) that
    is not part of the declared columns. *)

type t

val make : name:string -> Column.t list -> t
(** Raises [Invalid_argument] on duplicate column names or an empty
    column list. *)

val name : t -> string
val columns : t -> Column.t array
val arity : t -> int

val column_index : t -> string -> int
(** Raises {!Errors.No_such_column}. *)

val validate_row : t -> Value.t array -> unit
(** Checks arity and per-cell type/nullability; raises
    {!Errors.Type_mismatch} or {!Errors.Constraint_violation}. *)

val serialize : Buffer.t -> t -> unit
val deserialize : string -> int ref -> t
