(** Reusable dense working memory for one stage of a query: the visited
    set of a graph walk, the scores of an expansion, a text query's
    per-document sums, a response's per-page sums, the local ids of an
    induced subgraph.

    A scratch is a set of ids below a bound.  An id is a member iff
    [stamp.(id) = gen], so emptying the set takes a fresh generation
    and writes nothing.  [ids] lists the members in the order they
    joined (its first [count] entries).  Beside the set, {!floats} and
    {!ints} give arrays of the same length, which a stage indexes by id
    (holding a value for each member; a non-member's entry is stale) or
    by position.

    Each domain keeps a stack of scratches.  {!with_} lends the next
    free one and takes it back when [f] returns or raises, so stages
    nest: a stage started inside another's callback gets a scratch of
    its own, on the same domain, with no lock.  Once a domain has run a
    few queries it allocates nothing here.  Every array grows by one
    policy: to the larger of the bound asked for and twice its
    length. *)

type t = private {
  mutable stamp : int array;
  mutable gen : int;  (** the current generation; never 0 *)
  mutable ids : int array;
  mutable count : int;
  mutable heap : int array;  (** {!top}'s result *)
  mutable floats : float array array;
  mutable ints : int array array;
}

val with_ : bound:int -> (t -> 'a) -> 'a
(** [f s] with an empty scratch of this domain for ids below [bound]. *)

val clear : t -> unit
(** Empties the set. *)

val mem : t -> int -> bool

val add : t -> int -> unit
(** Makes a non-member a member, last in [ids]. *)

val floats : t -> int -> float array
(** [floats s k]: the scratch's [k]th float array, as long as [stamp].
    It keeps its contents across {!clear}. *)

val ints : t -> int -> int array
(** The [k]th int array, likewise. *)

val sort : t -> unit
(** Puts [ids]' members in ascending order. *)

val top : t -> float array -> int -> int
(** [top s value k] puts the (at most) [k] members with the highest
    [value.(id)] into [heap], best first, ties by ascending id, and
    returns how many it put. *)
