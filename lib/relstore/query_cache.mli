(** Bounded LRU cache for query results, validated by table epoch.

    Entries are keyed by a value of the caller's choosing, hashed with
    [Hashtbl.hash] and compared with [compare] — {!Query_exec} keys by
    the query itself: table uid, shape and predicate.  Each entry is
    tagged with the {!Table.epoch} it was computed at.  A lookup whose
    epoch no longer matches is reported {!Stale} and dropped
    immediately: a table that has moved on can never make an old result
    valid again.

    The cache itself ticks no metrics — the caller maps
    hit/stale/absent/evicted onto the obs counters it owns. *)

type payload =
  | Rows of (int * Row.t) list  (** a [select] result *)
  | Count of int
  | Groups of (Value.t * int) list  (** a [group_count] result *)

type 'k t

val create : ?capacity:int -> unit -> 'k t
(** Default capacity 512 entries.  Capacity 0 stores nothing. *)

val capacity : 'k t -> int

val set_capacity : 'k t -> int -> unit
(** Shrinking evicts cold entries immediately. *)

val clear : 'k t -> unit

type lookup =
  | Hit of payload  (** valid at this epoch; entry refreshed to most-recent *)
  | Stale  (** present but from an older epoch; entry has been removed *)
  | Absent

val find : 'k t -> key:'k -> epoch:int -> lookup

val put : 'k t -> key:'k -> epoch:int -> payload -> int
(** Insert (or refresh) an entry; returns how many cold entries were
    evicted to stay within capacity. *)
