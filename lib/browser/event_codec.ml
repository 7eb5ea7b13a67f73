module V = Provkit_util.Varint
module C = Relstore.Codec
module Frame = Provkit_util.Frame

(* v1: bare event encodings after the magic.  v2 frames every event
   with a length prefix and CRC-32 (Provkit_util.Frame) so a damaged
   byte anywhere ends the readable prefix instead of silently garbling
   the rest of the trace.  Both load; we always write v2. *)
let magic_v1 = "BROWSEVT1"
let magic_v2 = "BROWSEVT2"

let format_version s =
  if String.starts_with ~prefix:magic_v2 s then Some 2
  else if String.starts_with ~prefix:magic_v1 s then Some 1
  else None

let read_byte s pos =
  if !pos >= String.length s then Relstore.Errors.corrupt "event: truncated byte"
  else begin
    let c = s.[!pos] in
    incr pos;
    c
  end

let write_url buf url = C.write_string buf (Webmodel.Url.to_string url)
let read_url s pos = Webmodel.Url.of_string (C.read_string s pos)

let encode_event buf (event : Event.t) =
  match event with
  | Event.Visit v ->
    Buffer.add_char buf '\000';
    V.write_unsigned buf v.Event.visit_id;
    V.write_signed buf v.Event.time;
    V.write_unsigned buf v.Event.tab;
    C.write_opt_int buf v.Event.page;
    write_url buf v.Event.url;
    C.write_string buf v.Event.title;
    V.write_unsigned buf (Transition.to_code v.Event.transition);
    C.write_opt_int buf v.Event.referrer;
    C.write_opt_int buf v.Event.via_bookmark
  | Event.Close { time; tab; visit_id } ->
    Buffer.add_char buf '\001';
    V.write_signed buf time;
    V.write_unsigned buf tab;
    V.write_unsigned buf visit_id
  | Event.Tab_opened { time; tab; opener_tab } ->
    Buffer.add_char buf '\002';
    V.write_signed buf time;
    V.write_unsigned buf tab;
    C.write_opt_int buf opener_tab
  | Event.Tab_closed { time; tab } ->
    Buffer.add_char buf '\003';
    V.write_signed buf time;
    V.write_unsigned buf tab
  | Event.Bookmark_added { time; bookmark_id; visit_id; url; title } ->
    Buffer.add_char buf '\004';
    V.write_signed buf time;
    V.write_unsigned buf bookmark_id;
    V.write_unsigned buf visit_id;
    write_url buf url;
    C.write_string buf title
  | Event.Search { time; search_id; query; serp_visit } ->
    Buffer.add_char buf '\005';
    V.write_signed buf time;
    V.write_unsigned buf search_id;
    C.write_string buf query;
    V.write_unsigned buf serp_visit
  | Event.Download_started { time; download_id; visit_id; source_visit; url; target_path } ->
    Buffer.add_char buf '\006';
    V.write_signed buf time;
    V.write_unsigned buf download_id;
    V.write_unsigned buf visit_id;
    V.write_unsigned buf source_visit;
    write_url buf url;
    C.write_string buf target_path
  | Event.Form_submitted { time; form_id; source_visit; result_visit; fields } ->
    Buffer.add_char buf '\007';
    V.write_signed buf time;
    V.write_unsigned buf form_id;
    V.write_unsigned buf source_visit;
    V.write_unsigned buf result_visit;
    V.write_unsigned buf (List.length fields);
    List.iter
      (fun (k, v) ->
        C.write_string buf k;
        C.write_string buf v)
      fields

let decode_event s pos : Event.t =
  match read_byte s pos with
  | '\000' ->
    let visit_id = V.read_unsigned s pos in
    let time = V.read_signed s pos in
    let tab = V.read_unsigned s pos in
    let page = C.read_opt_int s pos in
    let url = read_url s pos in
    let title = C.read_string s pos in
    let transition = Transition.of_code (V.read_unsigned s pos) in
    let referrer = C.read_opt_int s pos in
    let via_bookmark = C.read_opt_int s pos in
    Event.Visit
      { Event.visit_id; time; tab; page; url; title; transition; referrer; via_bookmark }
  | '\001' ->
    let time = V.read_signed s pos in
    let tab = V.read_unsigned s pos in
    let visit_id = V.read_unsigned s pos in
    Event.Close { time; tab; visit_id }
  | '\002' ->
    let time = V.read_signed s pos in
    let tab = V.read_unsigned s pos in
    let opener_tab = C.read_opt_int s pos in
    Event.Tab_opened { time; tab; opener_tab }
  | '\003' ->
    let time = V.read_signed s pos in
    let tab = V.read_unsigned s pos in
    Event.Tab_closed { time; tab }
  | '\004' ->
    let time = V.read_signed s pos in
    let bookmark_id = V.read_unsigned s pos in
    let visit_id = V.read_unsigned s pos in
    let url = read_url s pos in
    let title = C.read_string s pos in
    Event.Bookmark_added { time; bookmark_id; visit_id; url; title }
  | '\005' ->
    let time = V.read_signed s pos in
    let search_id = V.read_unsigned s pos in
    let query = C.read_string s pos in
    let serp_visit = V.read_unsigned s pos in
    Event.Search { time; search_id; query; serp_visit }
  | '\006' ->
    let time = V.read_signed s pos in
    let download_id = V.read_unsigned s pos in
    let visit_id = V.read_unsigned s pos in
    let source_visit = V.read_unsigned s pos in
    let url = read_url s pos in
    let target_path = C.read_string s pos in
    Event.Download_started { time; download_id; visit_id; source_visit; url; target_path }
  | '\007' ->
    let time = V.read_signed s pos in
    let form_id = V.read_unsigned s pos in
    let source_visit = V.read_unsigned s pos in
    let result_visit = V.read_unsigned s pos in
    let n = V.read_unsigned s pos in
    let fields =
      List.init n (fun _ ->
          let k = C.read_string s pos in
          let v = C.read_string s pos in
          (k, v))
    in
    Event.Form_submitted { time; form_id; source_visit; result_visit; fields }
  | c -> Relstore.Errors.corrupt "event: unknown tag %d" (Char.code c)

let to_bytes events =
  let buf = Buffer.create 4096 in
  let scratch = Buffer.create 128 in
  Buffer.add_string buf magic_v2;
  List.iter
    (fun event ->
      Buffer.clear scratch;
      encode_event scratch event;
      Frame.write Varint buf (Buffer.contents scratch))
    events;
  Buffer.contents buf

let to_bytes_v1 events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic_v1;
  List.iter (encode_event buf) events;
  Buffer.contents buf

let read_prefix s =
  match format_version s with
  | Some 1 -> Frame.walk ~magic:magic_v1 decode_event s
  | Some _ -> Frame.walk ~magic:magic_v2 ~frames:Varint decode_event s
  | None -> Relstore.Errors.corrupt "event log: bad magic"

let of_bytes s = (read_prefix s).Frame.records

let save ~path events =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_bytes events))

let load ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_bytes (really_input_string ic len))

let replay events consumers =
  List.iter (fun event -> List.iter (fun consume -> consume event) consumers) events
