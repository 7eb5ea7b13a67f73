(** Persistent maps from non-negative ints: 32-way radix tries.

    The table row heap's map.  A lookup reads one array slot per five
    key bits — three levels for a 32k-row table, four up to a million —
    so a rowid fetch costs about what a hash-table probe does, while
    the map stays persistent: a table snapshot is one pointer copy, and
    an update copies one 32-slot array per level, except the arrays its
    {!edit} token may still write in place (see {!add}).  Keys must be
    [>= 0] (rowids are); dense keys, as rowids are, keep the tries
    compact. *)

type 'a t

type edit
(** A write token.  The nodes a write creates belong to its token until
    the token is frozen. *)

val edit : unit -> edit
(** A fresh token, which no existing node belongs to. *)

val freeze : edit -> unit
(** Every node written through the token so far stops belonging to it:
    later writes copy those nodes instead of updating them in place. *)

val empty : 'a t
val find : int -> 'a t -> 'a
(** Raises [Not_found]. *)

val find_opt : int -> 'a t -> 'a option
val mem : int -> 'a t -> bool

val add : edit:edit -> int -> 'a -> 'a t -> 'a t
(** Adds or replaces the binding.  Raises [Invalid_argument] on a
    negative key.

    Nodes that belong to [edit] are updated in place, so maps sharing
    them — earlier versions of this one included — change too.  Use a
    token only for a map nobody else holds, and {!freeze} it before
    sharing the map: no later write touches what the shared version
    holds.  A fresh token gives a fully persistent update. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Ascending key order. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Ascending key order. *)

val bindings : 'a t -> (int * 'a) list
(** Ascending key order. *)
