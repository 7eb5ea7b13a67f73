(** Browsing-session segmentation.

    Time relationships (§3.2) make sessions recoverable: displayed
    visits sorted by open time split wherever the idle gap exceeds a
    threshold.  Sessions give time-contextual search a natural unit
    ("that evening when..."), summarize recognizably ("mostly wine,
    some travel"), and let the history tree group its roots. *)

type t = {
  id : int;  (** 0-based, chronological *)
  start : int;  (** first open time *)
  stop : int;  (** last close (or open) time *)
  visits : int list;  (** displayed visit nodes, chronological *)
}

val detect : ?gap:int -> Prov_store.t -> t list
(** Segment the store's displayed visits ([gap] defaults to 1800 s of
    idle time).  Chronological. *)

val visit_count : t -> int
val duration : t -> int

val top_terms : ?limit:int -> Prov_store.t -> t -> (string * int) list
(** The session's most frequent title/URL terms ([limit] defaults to 5)
    — a cheap summary of "what this session was about". *)

val matching :
  ?limit:int -> Prov_text_index.t -> t list -> string -> (t * float) list
(** Sessions ranked by how strongly their visits' pages match a query —
    "find the evening I was researching X".  Score is the sum of the
    member pages' text scores. *)

val describe : Prov_store.t -> t -> string
(** One-line rendering: span, size, top terms. *)
