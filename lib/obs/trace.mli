(** Span-based tracing: structured [(name, attrs, start_ns, dur_ns)]
    events in a bounded in-memory ring buffer, with an optional sink
    invoked as each span closes.  Recording obeys {!Metrics.enabled};
    a traced path costs one branch when observability is off.

    Spans form trees: {!with_span} keeps an ambient stack of open
    frames, so nested calls link automatically through [trace_id] /
    [span_id] / [parent_id].  Ids come from a seeded deterministic
    stream ({!seed_ids}), never from wall clock. *)

type span = {
  name : string;
  attrs : (string * string) list;
  start_ns : int64;
  dur_ns : int64;
  trace_id : int64;  (** shared by every span of one root {!with_span} *)
  span_id : int64;  (** unique per span; [0] only on deserialized v1 lines *)
  parent_id : int64 option;  (** [None] for roots *)
}

type open_span = {
  o_name : string;
  o_trace_id : int64;
  o_span_id : int64;
  o_parent_id : int64 option;
  o_start_ns : int64;
}
(** A frame still on the ambient stack (its duration is unknown). *)

type tree = { node : span; children : tree list }

val record : ?attrs:(string * string) list -> string -> start_ns:int64 -> dur_ns:int64 -> unit
(** Append a finished span to the ring (overwriting the oldest when
    full, counted by {!Names.trace_dropped}) and pass it to the sink.
    The span attaches under the innermost open {!with_span} frame, if
    any; its [start_ns] is clamped to that frame's start so the
    enclosure invariant holds. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span, recording it even if the thunk raises.
    Nested calls become children.  When disabled, runs the thunk with no
    clock reads. *)

val open_spans : unit -> open_span list
(** The ambient stack of not-yet-closed {!with_span} frames, innermost
    first — the "ancestry" of whatever is executing right now. *)

val recent : unit -> span list
(** Current ring contents, oldest first (at most [capacity ()] spans). *)

val recorded : unit -> int
(** Spans recorded since the last {!clear}/{!set_capacity}, including
    ones already overwritten. *)

val assemble : span list -> tree list
(** Link an oldest-first span list (e.g. {!recent}) into trees by
    parent id.  Spans whose parent was overwritten in the ring surface
    as additional roots. *)

val enclosure_violations : span list -> string list
(** Parent/child pairs whose time intervals violate enclosure (child
    not contained in parent).  Always empty for spans produced by this
    tracer; exposed so tests can state the invariant. *)

val folded : span list -> (string * int64) list
(** Folded-stack aggregation ["root;child;leaf", self_ns] in the format
    flamegraph tooling consumes.  Self time is duration minus the summed
    durations of direct children, clamped at zero. *)

val render_trees : tree list -> string
(** Indented per-span listing of assembled trees, durations in ms. *)

val capacity : unit -> int

val set_capacity : int -> unit
(** Replace the ring with an empty one of the given size (default
    1024).  Raises [Invalid_argument] when non-positive. *)

val clear : unit -> unit
(** Empty the ring.  Open {!with_span} frames are unaffected. *)

val seed_ids : int -> unit
(** Reseed the id stream; two runs with the same seed and the same
    record sequence produce identical ids. *)

val set_sink : (span -> unit) option -> unit

val span_to_json : span -> string
(** One-line v2 JSON object:
    [{"v":2,"name":..,"trace_id":"<hex>","span_id":"<hex>",
      "parent_id":"<hex>"|null,"start_ns":..,"dur_ns":..,"attrs":{..}}]. *)

val span_of_json : string -> span option
(** Parse one JSONL span line.  Accepts both the v2 layout above and
    the v1 layout (no ["v"] marker, no id fields — ids deserialize as
    [0]/[None]).  [None] on malformed input. *)

(** The reader behind {!span_of_json}, shared with the slow-query log:
    one flat JSON object per line, as this tree writes them. *)
module Jsonl_reader : sig
  exception Bad

  val fields : string -> (string * string) list * (string * string) list
  (** [(scalars, attrs)]: top-level members with string values decoded
      (every escape {!Metrics.json_escape} writes, [\uXXXX] included)
      and other values as their raw token, then the members of a nested
      ["attrs"] object in order.  Raises {!Bad} on anything else. *)
end

val dump_jsonl : out_channel -> unit
(** Write {!recent} to the channel, one {!span_to_json} line per span. *)
