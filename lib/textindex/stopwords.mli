(** A small English + web-navigation stopword list. *)

val is_stopword : string -> bool
(** Expects an already-lowercased token. *)
