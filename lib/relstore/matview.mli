(** Incremental materialized views.

    A view is a streaming fold [{init; fold; finalize}] maintained by a
    registry as events arrive — ramen-style, instead of rescanning base
    tables on every read.  The registry is polymorphic in the event
    type: the browser layer folds [Browser.Event.t] streams, the WAL
    layer refolds [Prov_log.op] replay.

    Correctness contract (the differential gate in test_matview.ml):
    after folding any prefix of an event stream, [value] of every view
    must equal the cold recomputation of the same query over the tables
    that prefix produced. *)

type ('ev, 'st, 'out) spec = {
  name : string;
  init : unit -> 'st;
  fold : 'st -> 'ev -> 'st;
  finalize : 'st -> 'out;
}

type 'ev t
(** A registry of views over one event type. *)

type ('ev, 'st, 'out) handle
(** A registered view; reads its current state via {!value}. *)

val create : unit -> 'ev t

val register : 'ev t -> ('ev, 'st, 'out) spec -> ('ev, 'st, 'out) handle
(** Add a view.  A view registered mid-stream starts from [init] and
    lags behind [events_seen] until the next {!rebuild}; the gap shows
    up as its staleness. *)

val feed : 'ev t -> 'ev -> unit
(** Fold one event into every registered view (the incremental path).
    Bumps the update counter and latency histogram per view, then
    refreshes the staleness gauge. *)

val feed_batch : 'ev t -> 'ev list -> unit

val rebuild : 'ev t -> 'ev list -> unit
(** Full refresh: reset every view and refold the given stream from
    scratch.  The recovery path — WAL replay hands the recovered op
    stream here so views end up snapshot-consistent with the tables. *)

val value : ('ev, 'st, 'out) handle -> 'out
(** [finalize] applied to the view's current state. *)

val max_staleness : 'ev t -> int
(** [events_seen] minus the laggiest view's fold count. *)

type status = {
  st_name : string;
  st_folded : int;
  st_updates : int;
  st_refreshes : int;
  st_staleness : int;
}

val status : 'ev t -> status list
(** One row per view, in registration order. *)
