(* The metrics registry: monotonic counters, gauges, and log-linear
   latency histograms.  Everything is designed around two constraints:

   - recording must be O(1) and allocation-free on the hot path, so the
     instrumented layers (query executor, WAL) pay nanoseconds, not
     microseconds; callers intern a handle once at module init and the
     record itself is a couple of array/field writes;
   - a single global switch (the PROV_OBS environment variable, or
     [set_enabled]) turns every record into one branch, so tier-1
     benchmarks can run with instrumentation compiled in but off.

   Histograms are HDR-style log-linear: 16 linear sub-buckets per power
   of two, giving a worst-case relative error of 1/16 on any quantile
   while using a fixed ~1k-slot array per histogram regardless of the
   sample range. *)

let on =
  ref
    (match Sys.getenv_opt "PROV_OBS" with
    | Some ("off" | "0" | "false" | "OFF") -> false
    | _ -> true)

let enabled () = !on
let set_enabled b = on := b

(* --- counters --- *)

type counter = { c_name : string; mutable c_value : int }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace counters name c;
    c

(* Counters saturate at [max_int] rather than wrapping negative: a
   64-bit count of anything this process can do will not get there, but
   the guarantee keeps downstream arithmetic (rates, deltas) sane even
   under adversarial [add]s. *)
let add c by =
  if !on && by > 0 then begin
    let s = c.c_value + by in
    c.c_value <- (if s < c.c_value then max_int else s)
  end

let incr c = add c 1
let value c = c.c_value

(* --- gauges --- *)

type gauge = { g_name : string; mutable g_value : float }

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let gauge name =
  match Hashtbl.find_opt gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = 0.0 } in
    Hashtbl.replace gauges name g;
    g

let set_gauge g v = if !on then g.g_value <- v
let gauge_value name = match Hashtbl.find_opt gauges name with Some g -> g.g_value | None -> 0.0

(* --- histograms --- *)

(* Log-linear bucket mapping with [sub_bits] = 4: values below 16 map to
   themselves (exact); above that, a value with highest set bit [e] lands
   in one of 16 linear sub-buckets of the octave [2^e, 2^(e+1)). *)

let sub_bits = 4
let sub_count = 1 lsl sub_bits
let bucket_count = 960 (* covers every non-negative OCaml int *)

let msb v =
  let v, acc = if v lsr 32 <> 0 then (v lsr 32, 32) else (v, 0) in
  let v, acc = if v lsr 16 <> 0 then (v lsr 16, acc + 16) else (v, acc) in
  let v, acc = if v lsr 8 <> 0 then (v lsr 8, acc + 8) else (v, acc) in
  let v, acc = if v lsr 4 <> 0 then (v lsr 4, acc + 4) else (v, acc) in
  let v, acc = if v lsr 2 <> 0 then (v lsr 2, acc + 2) else (v, acc) in
  if v lsr 1 <> 0 then acc + 1 else acc

let bucket_of_value v =
  let v = if v < 0 then 0 else v in
  if v < sub_count then v
  else begin
    let e = msb v in
    ((e - sub_bits + 1) * sub_count) + ((v lsr (e - sub_bits)) land (sub_count - 1))
  end

let bucket_bounds i =
  if i < sub_count then (i, i)
  else begin
    let block = i lsr sub_bits and off = i land (sub_count - 1) in
    let e = block + sub_bits - 1 in
    let lo = (sub_count + off) lsl (e - sub_bits) in
    (lo, lo + (1 lsl (e - sub_bits)) - 1)
  end

type histogram = {
  h_name : string;
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : int;
  mutable h_max : int;
}

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let histogram name =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
    let h =
      {
        h_name = name;
        buckets = Array.make bucket_count 0;
        h_count = 0;
        h_sum = 0.0;
        h_min = max_int;
        h_max = 0;
      }
    in
    Hashtbl.replace histograms name h;
    h

let observe h v =
  if !on then begin
    let v = if v < 0 then 0 else v in
    let b = bucket_of_value v in
    h.buckets.(b) <- h.buckets.(b) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. float_of_int v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end

let time h f =
  if !on then begin
    let t0 = Provkit_util.Timing.now_ns () in
    let result = f () in
    observe h (Int64.to_int (Int64.sub (Provkit_util.Timing.now_ns ()) t0));
    result
  end
  else f ()

let hist_count h = h.h_count

(* The estimate for quantile [q] is the inclusive upper bound of the
   bucket holding the rank-⌈q·n⌉ order statistic, so it brackets the true
   quantile from above within the bucket's 1/16 relative width — the
   property the test suite checks against exact order statistics. *)
let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int h.h_count)) in
      if r < 1 then 1 else if r > h.h_count then h.h_count else r
    in
    let result = ref (float_of_int h.h_max) in
    (try
       let cum = ref 0 in
       for i = 0 to bucket_count - 1 do
         cum := !cum + h.buckets.(i);
         if !cum >= rank then begin
           let _, hi = bucket_bounds i in
           result := float_of_int hi;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

(* --- snapshots --- *)

type hist_summary = {
  hs_count : int;
  hs_sum : float;
  hs_min : int;
  hs_max : int;
  hs_p50 : float;
  hs_p95 : float;
  hs_p99 : float;
}

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_histograms : (string * hist_summary) list;
}

let by_name (a, _) (b, _) = String.compare a b

let summarize h =
  {
    hs_count = h.h_count;
    hs_sum = h.h_sum;
    hs_min = (if h.h_count = 0 then 0 else h.h_min);
    hs_max = h.h_max;
    hs_p50 = quantile h 0.50;
    hs_p95 = quantile h 0.95;
    hs_p99 = quantile h 0.99;
  }

let snapshot () =
  {
    snap_counters =
      List.sort by_name (Hashtbl.fold (fun k c acc -> (k, c.c_value) :: acc) counters []);
    snap_gauges =
      List.sort by_name (Hashtbl.fold (fun k g acc -> (k, g.g_value) :: acc) gauges []);
    snap_histograms =
      List.sort by_name (Hashtbl.fold (fun k h acc -> (k, summarize h) :: acc) histograms []);
  }

(* Reset zeroes values in place: interned handles held by instrumented
   modules stay live and registered. *)
let reset () =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0.0) gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.buckets 0 bucket_count 0;
      h.h_count <- 0;
      h.h_sum <- 0.0;
      h.h_min <- max_int;
      h.h_max <- 0)
    histograms

(* --- rendering --- *)

let ns_to_ms ns = ns /. 1e6

let render snap =
  let buf = Buffer.create 1024 in
  if snap.snap_counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    Buffer.add_string buf
      (Provkit_util.Table_fmt.render
         ~aligns:[ Provkit_util.Table_fmt.Left; Provkit_util.Table_fmt.Right ]
         ~header:[ "name"; "value" ]
         (List.map (fun (k, v) -> [ k; string_of_int v ]) snap.snap_counters))
  end;
  if snap.snap_gauges <> [] then begin
    Buffer.add_string buf "gauges:\n";
    Buffer.add_string buf
      (Provkit_util.Table_fmt.render
         ~aligns:[ Provkit_util.Table_fmt.Left; Provkit_util.Table_fmt.Right ]
         ~header:[ "name"; "value" ]
         (List.map (fun (k, v) -> [ k; Printf.sprintf "%.3f" v ]) snap.snap_gauges))
  end;
  if snap.snap_histograms <> [] then begin
    Buffer.add_string buf "histograms (ns):\n";
    Buffer.add_string buf
      (Provkit_util.Table_fmt.render
         ~aligns:
           Provkit_util.Table_fmt.
             [ Left; Right; Right; Right; Right; Right; Right ]
         ~header:[ "name"; "count"; "min"; "p50"; "p95"; "p99"; "max" ]
         (List.map
            (fun (k, s) ->
              [
                k;
                string_of_int s.hs_count;
                string_of_int s.hs_min;
                Printf.sprintf "%.0f" s.hs_p50;
                Printf.sprintf "%.0f" s.hs_p95;
                Printf.sprintf "%.0f" s.hs_p99;
                string_of_int s.hs_max;
              ])
            snap.snap_histograms))
  end;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json snap =
  let buf = Buffer.create 1024 in
  let obj fields =
    "{" ^ String.concat "," fields ^ "}"
  in
  let kv_int (k, v) = Printf.sprintf "\"%s\":%d" (json_escape k) v in
  let kv_float (k, v) = Printf.sprintf "\"%s\":%g" (json_escape k) v in
  let kv_hist (k, s) =
    Printf.sprintf
      "\"%s\":{\"count\":%d,\"sum\":%g,\"min\":%d,\"max\":%d,\"p50\":%g,\"p95\":%g,\"p99\":%g}"
      (json_escape k) s.hs_count s.hs_sum s.hs_min s.hs_max s.hs_p50 s.hs_p95 s.hs_p99
  in
  Buffer.add_string buf
    (obj
       [
         "\"counters\":" ^ obj (List.map kv_int snap.snap_counters);
         "\"gauges\":" ^ obj (List.map kv_float snap.snap_gauges);
         "\"histograms\":" ^ obj (List.map kv_hist snap.snap_histograms);
       ]);
  Buffer.contents buf

let headline snap =
  let c name = Option.value ~default:0 (List.assoc_opt name snap.snap_counters) in
  let parts =
    [
      Printf.sprintf "events=%d" (c Names.capture_events);
      Printf.sprintf "wal.appends=%d" (c Names.wal_appends);
      Printf.sprintf "queries=%d" (c Names.query_count);
    ]
  in
  let parts =
    match List.assoc_opt Names.query_latency_ns snap.snap_histograms with
    | Some s when s.hs_count > 0 ->
      parts
      @ [
          Printf.sprintf "q.p50=%.3fms" (ns_to_ms s.hs_p50);
          Printf.sprintf "q.p95=%.3fms" (ns_to_ms s.hs_p95);
        ]
    | _ -> parts
  in
  String.concat " " parts
