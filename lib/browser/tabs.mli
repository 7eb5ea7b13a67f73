(** Tab state: which tabs are open and which visit each is displaying.
    The engine uses this to emit the open/close events Firefox lacks. *)

type t

val create : unit -> t

val open_tab : t -> ?opener:int -> unit -> int
(** Returns the fresh tab id. *)

val close_tab : t -> int -> unit
(** Raises [Invalid_argument] on an unknown or already-closed tab. *)

val is_open : t -> int -> bool
val open_tabs : t -> int list
(** Ascending. *)

val opener : t -> int -> int option
val current_visit : t -> int -> int option
(** The visit currently displayed in a tab, when it has navigated. *)

val set_current_visit : t -> int -> int -> unit
(** Raises [Invalid_argument] on a closed tab. *)

