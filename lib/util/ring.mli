(** A bounded FIFO: pushing onto a full ring evicts its oldest entry.
    The one ring behind the span buffer, the flight recorder, the alert
    log, the metrics timeseries, the slow-query log and the query-result
    cache.  It holds no global state and takes no lock: each owner
    guards its own ring. *)

type ('k, 'a) t

val create : ?key:('a -> 'k option) -> int -> ('k, 'a) t
(** An empty ring of this capacity.  Entries whose [key] is [Some k]
    (unique among entries) can be found by [k].  Raises
    [Invalid_argument] when the capacity is not positive. *)

val push : ('k, 'a) t -> 'a -> 'a option
(** Append as newest; returns the entry evicted to make room. *)

val find : ('k, 'a) t -> 'k -> 'a option

val touch : ('k, 'a) t -> 'k -> unit
(** Make the keyed entry the newest, so it is evicted last. *)

val remove : ('k, 'a) t -> 'k -> unit

val to_list : ('k, 'a) t -> 'a list
(** Oldest first. *)

val length : ('k, 'a) t -> int
val capacity : ('k, 'a) t -> int

val pushed : ('k, 'a) t -> int
(** Pushes since creation or {!clear}, evicted ones included. *)

val clear : ('k, 'a) t -> unit

val resize : ('k, 'a) t -> int -> int
(** Set the capacity; a shrink evicts the oldest entries and returns
    how many. *)
