(* The flight recorder: an always-on, bounded incident log.  When
   something abnormal happens — an injected I/O fault fires, WAL
   recovery truncates, provctl dies on an uncaught exception — the
   recorder captures the state needed to explain it after the fact: the
   open-span ancestry at the moment of failure, the recent span tree,
   the full metrics snapshot and headline, and whatever context
   (seed, argv) the process registered.

   Unlike metrics and traces, recording is NOT gated on the PROV_OBS
   switch: incidents are rare by definition, so there is no hot path to
   protect, and a crash with observability off should still leave a
   postmortem. *)

type incident = {
  seq : int;  (** 1-based, monotonic across the process *)
  reason : string;
  attrs : (string * string) list;
  ancestry : Trace.open_span list;  (** innermost first *)
  spans : Trace.span list;  (** recent closed spans, oldest first, capped *)
  snapshot : Metrics.snapshot;
  headline : string;
  context : (string * string) list;
  dedup : string option;  (** merge key: repeats fold into one slot *)
  mutable repeats : int;  (** occurrences merged beyond the first *)
}

let m_incidents = Metrics.counter Names.flight_incidents

(* Bounded ring of kept incidents, keyed by dedup key; [total] keeps
   counting past it so tests can assert on deltas even when old
   incidents have rolled off. *)
let keep = 16
let span_cap = 64
let ring : (string, incident) Provkit_util.Ring.t =
  Provkit_util.Ring.create ~key:(fun i -> i.dedup) keep
let total = ref 0
let context : (string * string) list ref = ref []

(* One lock for ring/total/context: incidents can fire from any domain
   under provd (an alert rule tripping on the background domain while a
   fault hook fires on the ingest domain).  Nests over the Trace lock
   (record captures ancestry and recent spans) — Trace never calls back
   into Flight, so the order is acyclic. *)
let lock = Mutex.create ()

let set_context kvs =
  Mutex.protect lock (fun () ->
      List.iter (fun (k, v) -> context := (k, v) :: List.remove_assoc k !context) kvs)

let record ?(attrs = []) ?dedup reason =
  (* A repeated occurrence of a deduplicated incident (the same alert
     rule firing again, the same fault re-injected) must not consume
     another of the 16 ring slots: the first capture already holds the
     interesting state, so later ones just bump its repeat count.
     [total] and the metric still count every occurrence. *)
  Mutex.protect lock (fun () ->
      (match Option.bind dedup (Provkit_util.Ring.find ring) with
      | Some i -> i.repeats <- i.repeats + 1
      | None ->
        let snap = Metrics.snapshot () in
        let spans = Trace.recent () in
        let skip = List.length spans - span_cap in
        let i =
          {
            seq = !total + 1;
            reason;
            attrs;
            ancestry = Trace.open_spans ();
            spans = List.filteri (fun k _ -> k >= skip) spans;
            snapshot = snap;
            headline = Metrics.headline snap;
            context = List.rev !context;
            dedup;
            repeats = 0;
          }
        in
        ignore (Provkit_util.Ring.push ring i));
      total := !total + 1);
  Metrics.incr m_incidents

let recorded () = Mutex.protect lock (fun () -> !total)

let incidents () = Mutex.protect lock (fun () -> Provkit_util.Ring.to_list ring)
let latest () = List.nth_opt (List.rev (incidents ())) 0
let clear () = Mutex.protect lock (fun () -> Provkit_util.Ring.clear ring)

(* --- postmortem JSON --- *)

let kvs_json kvs =
  let buf = Buffer.create 64 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":\"%s\"" (Metrics.json_escape k) (Metrics.json_escape v)))
    kvs;
  Buffer.add_char buf '}';
  Buffer.contents buf

let to_json i =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"postmortem\":1,\"seq\":%d,\"reason\":\"%s\",\"repeats\":%d,\"attrs\":%s,\"context\":%s"
       i.seq (Metrics.json_escape i.reason) i.repeats (kvs_json i.attrs) (kvs_json i.context));
  Buffer.add_string buf ",\"open_spans\":[";
  List.iteri
    (fun k (o : Trace.open_span) ->
      if k > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"trace_id\":\"%Lx\",\"span_id\":\"%Lx\",\"parent_id\":%s,\"start_ns\":%Ld}"
           (Metrics.json_escape o.o_name) o.o_trace_id o.o_span_id
           (match o.o_parent_id with None -> "null" | Some p -> Printf.sprintf "\"%Lx\"" p)
           o.o_start_ns))
    i.ancestry;
  Buffer.add_string buf "],\"spans\":[";
  List.iteri
    (fun k s ->
      if k > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Trace.span_to_json s))
    i.spans;
  Buffer.add_string buf "],\"headline\":\"";
  Buffer.add_string buf (Metrics.json_escape i.headline);
  Buffer.add_string buf "\",\"metrics\":";
  Buffer.add_string buf (Metrics.to_json i.snapshot);
  Buffer.add_char buf '}';
  Buffer.contents buf

let dump i ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json i);
      output_char oc '\n')

(* --- standard triggers --- *)

let install_fault_hook () =
  Provkit_util.Faulty_io.set_fault_hook
    (Some
       (fun fault ->
         record "io.fault.injected"
           ~attrs:[ ("fault", Provkit_util.Faulty_io.fault_to_string fault) ]))

let uninstall_fault_hook () = Provkit_util.Faulty_io.set_fault_hook None
