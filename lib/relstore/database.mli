(** A named collection of tables with whole-database persistence and
    exact size accounting.

    The serialized form is what the storage-overhead experiments measure:
    a deterministic binary image containing every table's schema, rows
    and index definitions, plus (in {!total_size}) the materialized index
    entries, mirroring how SQLite charges file pages to both tables and
    their indexes. *)

type t

val create : name:string -> t
val name : t -> string

val create_table : t -> Schema.t -> Table.t
(** Raises [Invalid_argument] if the table already exists. *)

val table : t -> string -> Table.t
(** Raises {!Errors.No_such_table}. *)

val table_opt : t -> string -> Table.t option
val tables : t -> Table.t list
(** Sorted by table name. *)

val drop_table : t -> string -> unit
(** Raises {!Errors.No_such_table}. *)

val snapshot : t -> t
(** {!Table.snapshot} of every table: O(tables + indexes), independent
    of the row count, and unaffected by later writes to [t]. *)

(** {2 Persistence} *)

val to_bytes : t -> string
val of_bytes : string -> t
(** Raises {!Errors.Corrupt} on malformed input. *)

val save : t -> path:string -> unit
val load : path:string -> t

(** {2 Size accounting} *)

type size_breakdown = {
  table_name : string;
  rows : int;
  data_bytes : int;
  index_bytes : int;
}

val total_size : t -> int
(** Data plus index bytes across all tables (plus the catalog header). *)

val data_size : t -> int
val size_breakdown : t -> size_breakdown list

val pp_stats : Format.formatter -> t -> unit
