(** An incremental inverted index over integer document ids.

    Stores per-term postings with term frequencies and per-document
    lengths, supporting add, remove and the statistics (df, tf, N,
    average length) the scorers need. *)

type t

val create : unit -> t

val add_document : t -> int -> string list -> unit
(** [add_document t doc_id terms] indexes the document.  Re-adding an
    existing id replaces its previous postings. *)

val remove_document : t -> int -> unit
(** No-op on unknown ids. *)

val mem : t -> int -> bool
val document_count : t -> int
val document_length : t -> int -> int
(** Term count of a document; 0 if unknown. *)

val average_length : t -> float

val term_frequency : t -> term:string -> doc:int -> int
(** Staged: [term_frequency t ~term] finds the term once, and the
    function it returns looks documents up in its postings. *)

val document_frequency : t -> string -> int
val postings : t -> string -> (int * int) list
(** [(doc_id, tf)] pairs for a term, ascending doc id. *)

val vocabulary_size : t -> int
