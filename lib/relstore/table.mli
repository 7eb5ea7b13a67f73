(** Tables: a heap of rows addressed by integer row id, plus secondary
    indexes kept in sync on every mutation.

    The heap and the indexes are persistent maps, so {!snapshot} is
    O(number of indexes) however many rows the table holds, and the
    snapshot is immutable with respect to the source: later writes to
    either side are invisible to the other. *)

type t

val create : Schema.t -> t

val snapshot : t -> t
(** A copy sharing every row with [t], taken in O(indexes).  It keeps
    [t]'s epoch and gets a fresh {!uid}, so a cached result for one of
    the two can never be served for the other. *)

val schema : t -> Schema.t
val name : t -> string
val row_count : t -> int

val uid : t -> int
(** Process-unique table identity (never reused), for keying caches. *)

val epoch : t -> int
(** Modification epoch: bumped by every {!insert}, {!update},
    {!delete} and {!add_index}.  A cached query result tagged with the
    epoch it was computed at is valid exactly while the epoch is
    unchanged. *)

val insert : t -> Row.t -> int
(** Validates against the schema, assigns a fresh row id, updates all
    indexes, returns the row id.  Raises {!Errors.Corrupt} if the fresh
    row id is already occupied (a corrupt id counter — see
    {!deserialize}). *)

val insert_fields : t -> (string * Value.t) list -> int
(** {!Row.of_alist} followed by {!insert}. *)

val get : t -> int -> Row.t
(** Raises {!Errors.No_such_row}. *)

val get_opt : t -> int -> Row.t option
val mem : t -> int -> bool

val update : t -> int -> Row.t -> unit
(** Replace a row wholesale; indexes are maintained.  Raises
    {!Errors.No_such_row}. *)

val update_field : t -> int -> string -> Value.t -> unit
(** Point update of one column. *)

val delete : t -> int -> unit
(** Raises {!Errors.No_such_row}. *)

val iter : t -> (int -> Row.t -> unit) -> unit
(** Visits rows in ascending row id order. *)

val fold : t -> init:'a -> f:('a -> int -> Row.t -> 'a) -> 'a
(** Folds over rows in ascending row id order. *)

val rows : t -> (int * Row.t) list
(** All rows, ascending row id. *)

(** {2 Indexes} *)

val add_index : ?unique:bool -> t -> name:string -> columns:string list -> unit
(** Builds the index over existing rows.  Raises [Invalid_argument] on a
    duplicate index name. *)

val index : t -> string -> Index.t
(** Raises [Not_found]. *)

val indexes : t -> Index.t list

val find_index_on : t -> string list -> Index.t option
(** An index whose columns are exactly this list, if any. *)

val find_by : t -> columns:string list -> Value.t list -> (int * Row.t) list
(** Equality lookup.  Uses an index when one covers [columns] exactly;
    otherwise falls back to a scan.  Raises {!Errors.Arity_mismatch}
    when the key's length differs from [columns] — on both paths. *)

val find_one_by : t -> columns:string list -> Value.t list -> (int * Row.t) option

(** {2 Persistence and size accounting} *)

val serialize : Buffer.t -> t -> unit

val deserialize : string -> int ref -> t
(** Raises {!Errors.Corrupt} on duplicate rowids; a stored id counter
    at or below the maximum loaded rowid is clamped to [max_rowid + 1]
    so corrupt images cannot make {!insert} overwrite live rows. *)

val data_size : t -> int
(** Exact encoded byte size of {!serialize}'s output: schema, rows and
    index definitions (not materialized index entries). *)

val index_size : t -> int
(** Total {!Index.serialized_size} across this table's indexes. *)

val total_size : t -> int
(** [data_size + index_size]. *)
