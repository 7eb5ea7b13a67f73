module Obs = Provkit_obs

type entry = {
  e_fingerprint : int;
  e_table : string;
  e_op : string;
  e_plan : string;
  e_detail : string;
  mutable e_count : int;
  mutable e_total_ns : int;
  mutable e_max_ns : int;
  mutable e_last_ns : int;
  mutable e_rows_scanned : int;
  mutable e_rows_returned : int;
  mutable e_first_ns : int64;
  mutable e_last_ns_seen : int64;
}

let m_notes = Obs.Metrics.counter Obs.Names.slowlog_notes
let m_evictions = Obs.Metrics.counter Obs.Names.slowlog_evictions

let threshold = ref 1_000_000

(* Keyed by fingerprint; a repeat note touches its entry, so the ring's
   oldest entry is always the least recently noted one. *)
let ring : (int, entry) Provkit_util.Ring.t =
  Provkit_util.Ring.create ~key:(fun e -> Some e.e_fingerprint) 128

(* Serializes every access to [ring]: under provd the executor funnel
   runs on any reader domain. *)
let lock = Mutex.create ()

let threshold_ns () = !threshold

(* One hour: a "slow query" threshold beyond that is a typo (most
   likely ms or s pasted where ns belong), not a configuration. *)
let max_threshold_ns = 3_600_000_000_000

let set_threshold_ns n =
  if n < 0 then invalid_arg "Slowlog.set_threshold_ns: must be non-negative";
  if n > max_threshold_ns then
    invalid_arg "Slowlog.set_threshold_ns: above the 1-hour ceiling (expected nanoseconds)";
  threshold := n

(* PROV_SLOWLOG_NS overrides the default threshold at module load, the
   same pattern as PROV_OBS.  Parsing is exposed pure so tests can
   cover it without mutating the process environment: garbage and
   out-of-range values are ignored, not fatal — a bad env var must not
   take the whole CLI down. *)
let threshold_of_env_string s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 0 && n <= max_threshold_ns -> Some n
  | Some _ | None -> None

let () =
  match Sys.getenv_opt "PROV_SLOWLOG_NS" with
  | None -> ()
  | Some s -> ( match threshold_of_env_string s with Some n -> threshold := n | None -> ())

let fingerprint ~table ~op ~plan ~detail =
  (* Length-prefixed so ("a","bc") and ("ab","c") cannot collide by
     construction; CRC-32 keeps the key a small printable int. *)
  let buf = Buffer.create 64 in
  List.iter
    (fun s ->
      Buffer.add_string buf (string_of_int (String.length s));
      Buffer.add_char buf ':';
      Buffer.add_string buf s)
    [ table; op; plan; detail ];
  Provkit_util.Crc32.digest (Buffer.contents buf)

let note ~table ~op ~plan ~detail ~elapsed_ns ~rows_scanned ~rows_returned =
  let fp = fingerprint ~table ~op ~plan ~detail in
  let now = Provkit_util.Timing.now_ns () in
  Mutex.protect lock (fun () ->
  match Provkit_util.Ring.find ring fp with
  | Some e ->
    e.e_count <- e.e_count + 1;
    e.e_total_ns <- e.e_total_ns + elapsed_ns;
    if elapsed_ns > e.e_max_ns then e.e_max_ns <- elapsed_ns;
    e.e_last_ns <- elapsed_ns;
    e.e_rows_scanned <- rows_scanned;
    e.e_rows_returned <- rows_returned;
    e.e_last_ns_seen <- now;
    Provkit_util.Ring.touch ring fp
  | None ->
    let evicted =
      Provkit_util.Ring.push ring
        {
          e_fingerprint = fp;
          e_table = table;
          e_op = op;
          e_plan = plan;
          e_detail = detail;
          e_count = 1;
          e_total_ns = elapsed_ns;
          e_max_ns = elapsed_ns;
          e_last_ns = elapsed_ns;
          e_rows_scanned = rows_scanned;
          e_rows_returned = rows_returned;
          e_first_ns = now;
          e_last_ns_seen = now;
        }
    in
    if Option.is_some evicted then Obs.Metrics.incr m_evictions);
  Obs.Metrics.incr m_notes

let entries () =
  Mutex.protect lock (fun () -> Provkit_util.Ring.to_list ring)
  |> List.sort (fun a b -> Int.compare b.e_total_ns a.e_total_ns)

let clear () = Mutex.protect lock (fun () -> Provkit_util.Ring.clear ring)

(* --- serialization --- *)

let to_json e =
  Printf.sprintf
    "{\"fingerprint\":%d,\"table\":\"%s\",\"op\":\"%s\",\"plan\":\"%s\",\"detail\":\"%s\",\"count\":%d,\"total_ns\":%d,\"max_ns\":%d,\"last_ns\":%d,\"rows_scanned\":%d,\"rows_returned\":%d,\"first_ns\":%Ld,\"last_seen_ns\":%Ld}"
    e.e_fingerprint
    (Obs.Metrics.json_escape e.e_table)
    (Obs.Metrics.json_escape e.e_op)
    (Obs.Metrics.json_escape e.e_plan)
    (Obs.Metrics.json_escape e.e_detail)
    e.e_count e.e_total_ns e.e_max_ns e.e_last_ns e.e_rows_scanned e.e_rows_returned
    e.e_first_ns e.e_last_ns_seen

let of_json line =
  match Obs.Trace.Jsonl_reader.fields line with
  | exception Obs.Trace.Jsonl_reader.Bad -> None
  | fields, _ -> (
    let str k = List.assoc_opt k fields in
    let num k = Option.bind (str k) int_of_string_opt in
    let num64 k = Option.bind (str k) Int64.of_string_opt in
    match
      ( str "table", str "op", str "plan", str "detail",
        num "fingerprint", num "count", num "total_ns" )
    with
    | Some table, Some op, Some plan, Some detail, Some fp, Some count, Some total ->
      let d k = Option.value ~default:0 (num k) in
      let d64 k = Option.value ~default:0L (num64 k) in
      Some
        {
          e_fingerprint = fp;
          e_table = table;
          e_op = op;
          e_plan = plan;
          e_detail = detail;
          e_count = count;
          e_total_ns = total;
          e_max_ns = d "max_ns";
          e_last_ns = d "last_ns";
          e_rows_scanned = d "rows_scanned";
          e_rows_returned = d "rows_returned";
          e_first_ns = d64 "first_ns";
          e_last_ns_seen = d64 "last_seen_ns";
        }
    | _ -> None)

let dump_jsonl buf =
  List.iter
    (fun e ->
      Buffer.add_string buf (to_json e);
      Buffer.add_char buf '\n')
    (entries ())

let load_jsonl s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line -> if String.trim line = "" then None else of_json line)

let render es =
  Provkit_util.Table_fmt.render
    ~aligns:
      Provkit_util.Table_fmt.[ Left; Left; Left; Left; Right; Right; Right; Right ]
    ~header:[ "table"; "op"; "plan"; "detail"; "count"; "total ms"; "max ms"; "rows" ]
    (List.map
       (fun e ->
         [
           e.e_table;
           e.e_op;
           e.e_plan;
           e.e_detail;
           string_of_int e.e_count;
           Printf.sprintf "%.3f" (float_of_int e.e_total_ns /. 1e6);
           Printf.sprintf "%.3f" (float_of_int e.e_max_ns /. 1e6);
           Printf.sprintf "%d/%d" e.e_rows_scanned e.e_rows_returned;
         ])
       es)
