(** Row predicates, represented structurally so the executor can spot
    index-friendly shapes (top-level conjunctive equalities and ranges). *)

type cmp = Lt | Le | Gt | Ge | Ne

type t =
  | True
  | Eq of string * Value.t
  | Cmp of cmp * string * Value.t
  | Between of string * Value.t * Value.t  (** inclusive bounds *)
  | Is_null of string
  | Not_null of string
  | Like of string * string
      (** [Like (col, needle)]: case-insensitive substring match on a TEXT
          column; NULL never matches. *)
  | And of t list
  | Or of t list
  | Not of t
  | Custom of string * (Schema.t -> Row.t -> bool)
      (** Named escape hatch for predicates the algebra cannot express. *)

val eval : t -> Schema.t -> Row.t -> bool

val compile : t -> Schema.t -> Row.t -> bool
(** [compile p schema] resolves [p]'s column names against [schema]
    once and returns a row test equal to [eval p schema]: the executor
    compiles a query's predicate once and tests every row with it.  An
    unknown column raises when a row is tested, as with {!eval}. *)

val conjunctive_eqs : t -> (string * Value.t) list
(** Column=value pairs guaranteed by the predicate (those at the top
    level of a conjunction), usable for index lookups. *)

val conjunctive_range :
  t -> (string * (Value.t * bool) option * (Value.t * bool) option) option
(** A single-column range implied at the top level of a conjunction, if
    any: [(col, lo, hi)] where each bound carries its boundary value
    and an inclusivity flag ([true] for [Between]/[Le]/[Ge], [false]
    for the strict [Lt]/[Gt]).  When several bounds constrain the same
    column ([ts >= a AND ts <= b], stacked [Between]s, …) they are
    merged to the tightest pair; on equal boundary values the exclusive
    bound wins.  The first constrained column is the one reported. *)

val cacheable : t -> bool
(** [false] when a [Custom] closure appears anywhere in the predicate.
    Otherwise the predicate can key a cached result: it is compared
    structurally, and two predicates that compare equal select the same
    rows. *)

val pp : Format.formatter -> t -> unit
