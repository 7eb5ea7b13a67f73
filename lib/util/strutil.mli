(** Small string helpers shared across the repository. *)

val is_prefix : prefix:string -> string -> bool
val is_suffix : suffix:string -> string -> bool

val contains_substring : needle:string -> string -> bool
(** Naive substring search; fine for the short strings we handle. *)

val truncate : int -> string -> string
(** [truncate n s] is [s] limited to [n] bytes, with a trailing ellipsis
    when shortened. *)

val pad_right : int -> string -> string
(** Pad with spaces to at least the given width. *)

val pad_left : int -> string -> string

val repeat : int -> string -> string
(** [repeat n s] concatenates [n] copies of [s]. *)
