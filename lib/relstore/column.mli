(** Column definitions. *)

type t = { name : string; ty : Value.ty; nullable : bool }

val make : ?nullable:bool -> string -> Value.ty -> t
(** [nullable] defaults to [false]. *)

val accepts : t -> Value.t -> bool
(** Type/nullability check for one cell. *)
