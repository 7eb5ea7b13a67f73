(** An incremental inverted index over non-negative integer document
    ids.

    Each term's postings are a sorted pair of int arrays (doc ids and
    term frequencies), so a term's document frequency is the length of
    its postings.  Document lengths and each document's distinct terms
    live in arrays indexed by doc id.  Ids that ascend, as they do while
    an index is built, make every add an append; an out-of-order id or
    a re-add shifts the postings it lands in. *)

type t

type postings = private { mutable docs : int array; mutable tfs : int array; mutable len : int }
(** The first [len] entries of [docs] ascend; [tfs.(i)] is the
    frequency of the term in [docs.(i)].  Entries past [len] are
    spare capacity.  Read-only outside this module, and only valid
    until the next add or remove. *)

val create : unit -> t

val add_document : t -> int -> string list -> unit
(** [add_document t doc_id terms] indexes the document.  Re-adding an
    existing id replaces its previous postings.  Raises
    [Invalid_argument] on a negative id. *)

val remove_document : t -> int -> unit
(** No-op on unknown ids. *)

val mem : t -> int -> bool
val document_count : t -> int
val document_length : t -> int -> int
(** Term count of a document; 0 if unknown. *)

val average_length : t -> float

val bound : t -> int
(** Every indexed doc id is below [bound t]. *)

val terms : t -> int -> string list
(** The document's distinct terms, ascending; [] if unknown. *)

val document_frequency : t -> string -> int
(** O(1): the length of the term's postings. *)

val postings : t -> string -> postings
(** The term's postings; empty for an unknown term. *)
