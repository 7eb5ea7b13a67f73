(** Ordered secondary indexes over one or more columns.

    An index maps a composite key (the indexed columns' values, in order)
    to the set of row ids holding that key.  Lookups are O(log n);
    range scans stream keys in order. *)

type t

val create : ?unique:bool -> name:string -> columns:string list -> Schema.t -> t
(** Raises {!Errors.No_such_column} if a column does not exist.
    [unique] (default false) enforces at-most-one row id per key. *)

val copy : t -> t
(** An independent copy in O(1): the entries are a persistent map, so
    neither side's later {!add}/{!remove} is visible to the other. *)

val name : t -> string
val column_names : t -> string list
val is_unique : t -> bool

val key_of_row : t -> Row.t -> Value.t list
(** Extract this index's key from a full row. *)

val add : t -> int -> Row.t -> unit
(** [add t rowid row] indexes [row].  Raises
    {!Errors.Constraint_violation} when a unique index already holds the
    key for a different row id. *)

val remove : t -> int -> Row.t -> unit

val find : t -> Value.t list -> int list
(** Row ids with exactly this key, ascending. *)

val find_one : t -> Value.t list -> int option
(** Any single row id for the key (the smallest). *)

val mem : t -> Value.t list -> bool

val fold_range :
  ?lo:Value.t list ->
  ?lo_inclusive:bool ->
  ?hi:Value.t list ->
  ?hi_inclusive:bool ->
  t ->
  init:'a ->
  f:('a -> Value.t list -> int -> 'a) ->
  'a
(** Fold over entries with keys between [lo] and [hi] (lexicographic);
    omitted bounds are unbounded, and a bound includes its own key
    unless its [_inclusive] flag (default true) is false.  Visits keys
    in ascending order and row ids ascending within a key. *)

val serialized_size : t -> int
(** Exact byte cost of persisting this index: per entry, the encoded key
    plus a varint row id.  Counted in database size accounting because a
    SQLite index occupies file pages the same way. *)
