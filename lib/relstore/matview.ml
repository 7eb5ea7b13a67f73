module Obs = Provkit_obs

(* Incremental materialized views: a registry of folds maintained as
   events arrive, instead of rescanning tables on every read.  The
   machinery is generic over the event type — the browser layer
   instantiates it with [Browser.Event.t] streams, the WAL layer with
   [Prov_log.op] replay — and each view is the ramen-style triple
   {init; fold; finalize} plus a modification epoch.

   The correctness contract (enforced by test/test_matview.ml) is
   differential: for every registered view, [finalize state] after
   folding a stream prefix must equal the cold recomputation of the
   same query over the tables that prefix produced. *)

let m_updates = Obs.Metrics.counter Obs.Names.matview_updates
let m_refreshes = Obs.Metrics.counter Obs.Names.matview_refreshes
let g_staleness = Obs.Metrics.gauge Obs.Names.matview_staleness
let h_update_ns = Obs.Metrics.histogram Obs.Names.matview_update_ns

type ('ev, 'st, 'out) spec = {
  name : string;
  init : unit -> 'st;
  fold : 'st -> 'ev -> 'st;
  finalize : 'st -> 'out;
}

(* One registered view, with its state hidden behind closures so the
   registry can hold heterogeneous views of one event type. *)
type 'ev slot = {
  s_name : string;
  s_feed : 'ev -> unit;
  s_reset : unit -> unit;
  (* Events folded since registration/reset — the view's modification
     epoch.  A view registered mid-stream lags [events_seen] until the
     next rebuild; that gap is its staleness. *)
  mutable s_folded : int;
  mutable s_updates : int;
  mutable s_refreshes : int;
}

type 'ev t = { mutable slots : 'ev slot list; mutable events_seen : int }

type ('ev, 'st, 'out) handle = {
  h_spec : ('ev, 'st, 'out) spec;
  h_state : 'st ref;
  h_slot : 'ev slot;
}

let create () = { slots = []; events_seen = 0 }

let register t spec =
  let state = ref (spec.init ()) in
  let slot =
    {
      s_name = spec.name;
      s_feed = (fun ev -> state := spec.fold !state ev);
      s_reset = (fun () -> state := spec.init ());
      s_folded = 0;
      s_updates = 0;
      s_refreshes = 0;
    }
  in
  t.slots <- t.slots @ [ slot ];
  { h_spec = spec; h_state = state; h_slot = slot }

let value h = h.h_spec.finalize !(h.h_state)
let folded h = h.h_slot.s_folded
let events_seen t = t.events_seen

let max_staleness t =
  List.fold_left (fun acc s -> max acc (t.events_seen - s.s_folded)) 0 t.slots

let feed t ev =
  t.events_seen <- t.events_seen + 1;
  List.iter
    (fun s ->
      Obs.Metrics.time h_update_ns (fun () -> s.s_feed ev);
      s.s_folded <- s.s_folded + 1;
      s.s_updates <- s.s_updates + 1;
      Obs.Metrics.incr m_updates)
    t.slots;
  Obs.Metrics.set_gauge g_staleness (float_of_int (max_staleness t))

let feed_batch t evs = List.iter (feed t) evs

(* Full refresh: drop every view's running state and refold the stream
   from scratch.  This is the recovery path (WAL replay rebuilds views
   snapshot-consistently with the tables) and the [provctl matview
   refresh] escape hatch; per-view folds during the refold still count
   as updates, the refresh counter records the rebuild itself. *)
let rebuild t evs =
  List.iter
    (fun s ->
      s.s_reset ();
      s.s_folded <- 0;
      s.s_refreshes <- s.s_refreshes + 1;
      Obs.Metrics.incr m_refreshes)
    t.slots;
  t.events_seen <- 0;
  feed_batch t evs

type status = {
  st_name : string;
  st_folded : int;
  st_updates : int;
  st_refreshes : int;
  st_staleness : int;
}

let status t =
  List.map
    (fun s ->
      {
        st_name = s.s_name;
        st_folded = s.s_folded;
        st_updates = s.s_updates;
        st_refreshes = s.s_refreshes;
        st_staleness = t.events_seen - s.s_folded;
      })
    t.slots
