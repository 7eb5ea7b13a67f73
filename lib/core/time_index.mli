(** Open/close intervals for visits (§3.2).

    The paper notes Firefox timestamps page visits but never records a
    close, so "from the perspective of Firefox history, every page is
    always open."  The capture layer feeds both endpoints here, enabling
    the co-open and time-window queries behind time-contextual search. *)

type t

val create : unit -> t

val add : t -> node:int -> opened:int -> unit
(** Register a visit node's open time.  Re-adding replaces.  Node ids
    index arrays, so they must be [>= 0] ([Invalid_argument]
    otherwise). *)

val close : t -> node:int -> closed:int -> unit
(** Unknown nodes are ignored.  [closed] earlier than the open time is
    clamped up to it. *)

val interval : t -> int -> (int * int option) option
(** [(opened, closed)] for a node. *)

val in_window : t -> start:int -> stop:int -> int list
(** Nodes whose interval intersects \[start, stop\], ascending. *)

val iter_window : t -> start:int -> stop:int -> (int -> unit) -> unit
(** [f node] for the nodes {!in_window} returns, each once, in no
    particular order, without building the list. *)

val overlap : t -> int -> int -> bool [@@provlint.allow "unused-export"]
(** Reference oracle: the schema tests check every derived Same_time edge against it. *)
