(* The metrics-snapshot ring.  Points are full Metrics.snapshot values:
   at a few hundred registered metrics and a default capacity of 240
   points the ring tops out around a megabyte, and keeping the whole
   snapshot means delta arithmetic never loses a metric that appeared
   mid-series. *)

type point = { pt_ns : int64; pt_snap : Metrics.snapshot }

type kind = Counter | Gauge | Hist_count

type series = {
  s_name : string;
  s_kind : kind;
  s_prev : float;
  s_cur : float;
  s_delta : float;
  s_rate : float;
}

type t = { lock : Mutex.t; q : (unit, point) Provkit_util.Ring.t }

let create ?(capacity = 240) () =
  if capacity <= 0 then invalid_arg "Timeseries.create: capacity must be positive";
  (* The per-ring lock serializes ring mutation and, by running
     observers inside it, the alert engine's state transitions when
     provd pulses from a background domain. *)
  { lock = Mutex.create (); q = Provkit_util.Ring.create capacity }

let capacity t = Provkit_util.Ring.capacity t.q

let m_points = Metrics.counter Names.timeseries_points

(* Point observers: the alert engine and the telemetry journal react to
   every recorded point without this module depending on either.
   Installed once at startup (or test setup), then only read. *)
let observers : (point -> unit) list ref = ref []

let add_observer f = observers := !observers @ [ f ]
let clear_observers () = observers := []

let push t pt = ignore (Provkit_util.Ring.push t.q pt)

let record ?now_ns t =
  let now = match now_ns with Some n -> n | None -> Provkit_util.Timing.now_ns () in
  let pt = { pt_ns = now; pt_snap = Metrics.snapshot () } in
  Mutex.protect t.lock (fun () ->
      push t pt;
      List.iter (fun f -> f pt) !observers);
  Metrics.incr m_points;
  pt

let points t = Mutex.protect t.lock (fun () -> Provkit_util.Ring.to_list t.q)

(* --- deltas and rates --- *)

let deltas_between older newer =
  let dt_s =
    let dt = Int64.to_float (Int64.sub newer.pt_ns older.pt_ns) /. 1e9 in
    if dt > 0.0 then dt else 0.0
  in
  (* A NaN or infinite gauge delta would poison the rate column (and
     any alert rule reading it); report idle instead. *)
  let rate d = if dt_s > 0.0 && Float.is_finite d then d /. dt_s else 0.0 in
  let row kind name prev cur ~monotonic =
    let delta = cur -. prev in
    (* A counter going backwards means the registry was reset between
       the points; report idle rather than a negative rate. *)
    let delta = if monotonic && delta < 0.0 then 0.0 else delta in
    { s_name = name; s_kind = kind; s_prev = prev; s_cur = cur; s_delta = delta;
      s_rate = rate delta }
  in
  let counters =
    List.map
      (fun (name, cur) ->
        let prev =
          match List.assoc_opt name older.pt_snap.Metrics.snap_counters with
          | Some v -> float_of_int v
          | None -> 0.0
        in
        row Counter name prev (float_of_int cur) ~monotonic:true)
      newer.pt_snap.Metrics.snap_counters
  in
  let gauges =
    List.map
      (fun (name, cur) ->
        let prev =
          Option.value ~default:0.0 (List.assoc_opt name older.pt_snap.Metrics.snap_gauges)
        in
        row Gauge name prev cur ~monotonic:false)
      newer.pt_snap.Metrics.snap_gauges
  in
  let hists =
    List.map
      (fun (name, (s : Metrics.hist_summary)) ->
        let prev =
          match List.assoc_opt name older.pt_snap.Metrics.snap_histograms with
          | Some (p : Metrics.hist_summary) -> float_of_int p.Metrics.hs_count
          | None -> 0.0
        in
        row Hist_count name prev (float_of_int s.Metrics.hs_count) ~monotonic:true)
      newer.pt_snap.Metrics.snap_histograms
  in
  List.sort (fun a b -> String.compare a.s_name b.s_name) (counters @ gauges @ hists)

let last_deltas t =
  match List.rev (points t) with
  | newer :: older :: _ -> Some (deltas_between older newer)
  | _ -> None

let render rows =
  let fmt_num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.3f" v
  in
  let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Hist_count -> "hist" in
  Provkit_util.Table_fmt.render
    ~aligns:
      Provkit_util.Table_fmt.[ Left; Left; Right; Right; Right ]
    ~header:[ "name"; "kind"; "value"; "delta"; "rate/s" ]
    (List.map
       (fun r ->
         [ r.s_name; kind_name r.s_kind; fmt_num r.s_cur; fmt_num r.s_delta;
           Printf.sprintf "%.1f" r.s_rate ])
       rows)

(* --- default ring + pulse --- *)

let default = create ()

let pulse_interval = 1024
let pulse_count = ref 0

(* Guards only the pulse counter: the recorded point itself is covered
   by [default]'s own lock inside [record]. *)
let pulse_lock = Mutex.create ()

let pulse () =
  if Metrics.enabled () then begin
    let due =
      Mutex.protect pulse_lock (fun () ->
          incr pulse_count;
          !pulse_count mod pulse_interval = 0)
    in
    if due then ignore (record default)
  end

(* --- Prometheus text exposition --- *)

let mangle name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

(* NaN and infinities are valid Prometheus sample tokens, but only as
   "NaN"/"+Inf"/"-Inf" — OCaml's %g would print "nan"/"inf", which
   scrapers reject. *)
let fmt_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let prometheus (snap : Metrics.snapshot) =
  let buf = Buffer.create 2048 in
  List.iter
    (fun (name, v) ->
      let n = mangle name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    snap.Metrics.snap_counters;
  List.iter
    (fun (name, v) ->
      let n = mangle name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %s\n" n n (fmt_float v)))
    snap.Metrics.snap_gauges;
  List.iter
    (fun (name, (s : Metrics.hist_summary)) ->
      let n = mangle name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" n);
      List.iter
        (fun (q, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s{quantile=\"%s\"} %s\n" n q (fmt_float v)))
        [ ("0.5", s.Metrics.hs_p50); ("0.95", s.Metrics.hs_p95); ("0.99", s.Metrics.hs_p99) ];
      Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" n (fmt_float s.Metrics.hs_sum));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n s.Metrics.hs_count))
    snap.Metrics.snap_histograms;
  Buffer.contents buf
