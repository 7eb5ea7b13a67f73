(** Minimal URL values: enough structure for history storage, textual
    matching and display — scheme, host, path and query. *)

type t = {
  scheme : string;
  host : string;
  path : string list;  (** segments, no slashes *)
  query : (string * string) list;
}

val make : ?scheme:string -> ?path:string list -> ?query:(string * string) list -> string -> t
(** [make host] with [scheme] defaulting to ["http"]. *)

val to_string : t -> string
(** ["scheme://host/seg1/seg2?k=v&k2=v2"]. *)

val of_string : string -> t
(** Inverse of {!to_string} for URLs in that shape; lenient about
    missing scheme (defaults to http).  Raises [Invalid_argument] on an
    empty host. *)

val host : t -> string
