(* The durable telemetry journal: CRC-framed snapshot records appended
   on every recorded Timeseries point and on every alert transition, so
   `provctl top --since` and the alert engine can see history across
   restarts.

   The file is a PTJ1 magic header, then one {!Provkit_util.Frame} per
   record with the format's 4-byte LE length.  Replay walks the frames
   with the shared clean-prefix walker, so a crash-truncated or
   corrupted tail is detected, reported (flight incident +
   {!Names.telemetry_journal_truncations}), and cut away on the next
   {!open_} exactly like WAL recovery truncates a torn segment. *)

module Frame = Provkit_util.Frame

let magic = "PTJ1\n"

type t = { tj_path : string; tj_oc : out_channel; mutable tj_closed : bool }

type replay = {
  rp_points : Timeseries.point list;  (** oldest first *)
  rp_transitions : Alert.transition list;  (** oldest first *)
  rp_records : int;
  rp_truncated : bool;  (** a torn or corrupt tail was cut away *)
  rp_clean_bytes : int;  (** length of the verified prefix, magic included *)
}

let m_appends = Metrics.counter Names.telemetry_journal_appends
let m_replays = Metrics.counter Names.telemetry_journal_replays
let m_truncations = Metrics.counter Names.telemetry_journal_truncations

(* --- record encoding --- *)

type record = Point of Timeseries.point | Transition of Alert.transition

let tag_point = 1
let tag_transition = 2

let w_u8 buf v = Buffer.add_uint8 buf (v land 0xff)
let w_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
let w_i64 = Buffer.add_int64_le
let w_f64 buf v = w_i64 buf (Int64.bits_of_float v)

let w_str buf s =
  w_u32 buf (String.length s);
  Buffer.add_string buf s

let w_list buf l write_one =
  w_u32 buf (List.length l);
  List.iter (write_one buf) l

let encode_record buf = function
  | Point pt ->
    w_u8 buf tag_point;
    w_i64 buf pt.Timeseries.pt_ns;
    let snap = pt.Timeseries.pt_snap in
    w_list buf snap.Metrics.snap_counters (fun buf (name, v) ->
        w_str buf name;
        w_i64 buf (Int64.of_int v));
    w_list buf snap.Metrics.snap_gauges (fun buf (name, v) ->
        w_str buf name;
        w_f64 buf v);
    w_list buf snap.Metrics.snap_histograms (fun buf (name, (h : Metrics.hist_summary)) ->
        w_str buf name;
        w_i64 buf (Int64.of_int h.Metrics.hs_count);
        w_f64 buf h.Metrics.hs_sum;
        w_i64 buf (Int64.of_int h.Metrics.hs_min);
        w_i64 buf (Int64.of_int h.Metrics.hs_max);
        w_f64 buf h.Metrics.hs_p50;
        w_f64 buf h.Metrics.hs_p95;
        w_f64 buf h.Metrics.hs_p99)
  | Transition tr ->
    w_u8 buf tag_transition;
    w_u32 buf tr.Alert.tr_seq;
    w_str buf tr.Alert.tr_rule;
    w_u8 buf (match tr.Alert.tr_kind with Alert.Fire -> 1 | Alert.Resolve -> 2);
    w_i64 buf tr.Alert.tr_ns;
    w_f64 buf tr.Alert.tr_value;
    w_u8 buf
      (match tr.Alert.tr_severity with Alert.Info -> 0 | Alert.Warning -> 1 | Alert.Critical -> 2)

(* --- record decoding --- *)

let corrupt = Provkit_util.Varint.corrupt

let need s pos n =
  if n < 0 || String.length s - !pos < n then corrupt "telemetry: truncated record at %d" !pos

let r_u8 s pos =
  need s pos 1;
  incr pos;
  Char.code s.[!pos - 1]

let r_u32 s pos =
  need s pos 4;
  pos := !pos + 4;
  Int32.to_int (String.get_int32_le s (!pos - 4)) land 0xFFFF_FFFF

let r_i64 s pos =
  need s pos 8;
  pos := !pos + 8;
  String.get_int64_le s (!pos - 8)

let r_f64 s pos = Int64.float_of_bits (r_i64 s pos)

let r_str s pos =
  let len = r_u32 s pos in
  need s pos len;
  pos := !pos + len;
  String.sub s (!pos - len) len

(* Every element takes at least one byte, so a count beyond what
   remains is damage, caught before it sizes a list. *)
let r_list s pos read_one =
  let n = r_u32 s pos in
  need s pos n;
  List.init n (fun _ -> read_one s pos)

let decode_record s pos =
  match r_u8 s pos with
  | t when t = tag_point ->
    let pt_ns = r_i64 s pos in
    let snap_counters = r_list s pos (fun s pos ->
        let name = r_str s pos in
        (name, Int64.to_int (r_i64 s pos)))
    in
    let snap_gauges = r_list s pos (fun s pos ->
        let name = r_str s pos in
        (name, r_f64 s pos))
    in
    let snap_histograms = r_list s pos (fun s pos ->
        let name = r_str s pos in
        let hs_count = Int64.to_int (r_i64 s pos) in
        let hs_sum = r_f64 s pos in
        let hs_min = Int64.to_int (r_i64 s pos) in
        let hs_max = Int64.to_int (r_i64 s pos) in
        let hs_p50 = r_f64 s pos in
        let hs_p95 = r_f64 s pos in
        let hs_p99 = r_f64 s pos in
        (name, { Metrics.hs_count; hs_sum; hs_min; hs_max; hs_p50; hs_p95; hs_p99 }))
    in
    Point { Timeseries.pt_ns; pt_snap = { Metrics.snap_counters; snap_gauges; snap_histograms } }
  | t when t = tag_transition ->
    let tr_seq = r_u32 s pos in
    let tr_rule = r_str s pos in
    let tr_kind =
      match r_u8 s pos with 1 -> Alert.Fire | 2 -> Alert.Resolve | k -> corrupt "telemetry: kind %d" k
    in
    let tr_ns = r_i64 s pos in
    let tr_value = r_f64 s pos in
    let tr_severity =
      match r_u8 s pos with
      | 0 -> Alert.Info
      | 1 -> Alert.Warning
      | 2 -> Alert.Critical
      | k -> corrupt "telemetry: severity %d" k
    in
    Transition { Alert.tr_seq; tr_rule; tr_kind; tr_ns; tr_value; tr_severity }
  | t -> corrupt "telemetry: unknown record tag %d" t

(* --- replay --- *)

let read_file path =
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all else ""

(* A missing or empty file is an empty journal; anything else must
   start with the magic (or a torn piece of it). *)
let parse raw =
  let p =
    if raw = "" then { Frame.records = []; clean_bytes = 0; clean = true }
    else Frame.walk ~magic ~frames:U32_le decode_record raw
  in
  {
    rp_points = List.filter_map (function Point pt -> Some pt | Transition _ -> None) p.records;
    rp_transitions =
      List.filter_map (function Transition tr -> Some tr | Point _ -> None) p.records;
    rp_records = List.length p.records;
    rp_truncated = not p.clean;
    rp_clean_bytes = p.clean_bytes;
  }

let replay_image ~path raw =
  let rp = parse raw in
  Metrics.incr m_replays;
  if rp.rp_truncated then begin
    Metrics.incr m_truncations;
    Flight.record "telemetry.journal.truncated"
      ~dedup:("telemetry.journal.truncated:" ^ path)
      ~attrs:
        [
          ("path", path);
          ("clean_bytes", string_of_int rp.rp_clean_bytes);
          ("records", string_of_int rp.rp_records);
        ]
  end;
  rp

let replay ~path = replay_image ~path (read_file path)

let replay_into ring ~path =
  let rp = replay ~path in
  (* Timeseries.push, not record: replay must not re-snapshot, re-tick,
     or re-notify the observers that wrote this journal. *)
  List.iter (fun pt -> Timeseries.push ring pt) rp.rp_points;
  rp

(* --- the writer --- *)

let open_ ~path =
  (* Recover first: cut any torn tail back to the clean prefix (the
     same discipline as WAL segment recovery), then append after it.
     A file that is not a journal raises here, before it is touched. *)
  let raw = read_file path in
  let clean = if raw = "" then 0 else (replay_image ~path raw).rp_clean_bytes in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path in
  output_string oc (if clean = 0 then magic else String.sub raw 0 clean);
  flush oc;
  { tj_path = path; tj_oc = oc; tj_closed = false }

let path t = t.tj_path

let append t record =
  if not t.tj_closed then begin
    let payload = Buffer.create 512 in
    encode_record payload record;
    let frame = Buffer.create (Buffer.length payload + 8) in
    Frame.write U32_le frame (Buffer.contents payload);
    Buffer.output_buffer t.tj_oc frame;
    flush t.tj_oc;
    Metrics.incr m_appends
  end

let append_point t pt = append t (Point pt)
let append_transition t tr = append t (Transition tr)

let close t =
  if not t.tj_closed then begin
    t.tj_closed <- true;
    close_out t.tj_oc
  end

let attach t =
  Timeseries.add_observer (fun pt -> append_point t pt);
  Alert.add_transition_hook (fun tr -> append_transition t tr)
