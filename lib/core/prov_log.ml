module V = Relstore.Varint
module C = Relstore.Codec
module Obs = Provkit_obs

type op = Prov_store.mutation =
  | Add_node of Prov_node.t
  | Add_edge of { src : int; dst : int; edge : Prov_edge.t }
  | Close_node of { id : int; time : int }

(* --- op codec --- *)

let write_opt_int buf = function
  | None -> Buffer.add_char buf '\000'
  | Some n ->
    Buffer.add_char buf '\001';
    V.write_signed buf n

let read_opt_int s pos =
  if !pos >= String.length s then Relstore.Errors.corrupt "prov_log: truncated option"
  else begin
    let c = s.[!pos] in
    incr pos;
    match c with
    | '\000' -> None
    | '\001' -> Some (V.read_signed s pos)
    | _ -> Relstore.Errors.corrupt "prov_log: bad option tag"
  end

let write_kind buf (kind : Prov_node.kind) =
  V.write_unsigned buf (Prov_node.kind_code kind);
  match kind with
  | Prov_node.Page { url; title } ->
    C.write_string buf url;
    C.write_string buf title
  | Prov_node.Visit { url; title; transition; tab } ->
    C.write_string buf url;
    C.write_string buf title;
    V.write_unsigned buf (Browser.Transition.to_code transition);
    V.write_unsigned buf tab
  | Prov_node.Bookmark { title; url } ->
    C.write_string buf title;
    C.write_string buf url
  | Prov_node.Download { source_url; target_path } ->
    C.write_string buf source_url;
    C.write_string buf target_path
  | Prov_node.Search_term { query } -> C.write_string buf query
  | Prov_node.Form_submission { fields } ->
    V.write_unsigned buf (List.length fields);
    List.iter
      (fun (k, v) ->
        C.write_string buf k;
        C.write_string buf v)
      fields

let read_kind s pos : Prov_node.kind =
  match V.read_unsigned s pos with
  | 0 ->
    let url = C.read_string s pos in
    let title = C.read_string s pos in
    Prov_node.Page { url; title }
  | 1 ->
    let url = C.read_string s pos in
    let title = C.read_string s pos in
    let transition = Browser.Transition.of_code (V.read_unsigned s pos) in
    let tab = V.read_unsigned s pos in
    Prov_node.Visit { url; title; transition; tab }
  | 2 ->
    let title = C.read_string s pos in
    let url = C.read_string s pos in
    Prov_node.Bookmark { title; url }
  | 3 ->
    let source_url = C.read_string s pos in
    let target_path = C.read_string s pos in
    Prov_node.Download { source_url; target_path }
  | 4 -> Prov_node.Search_term { query = C.read_string s pos }
  | 5 ->
    let n = V.read_unsigned s pos in
    let fields =
      List.init n (fun _ ->
          let k = C.read_string s pos in
          let v = C.read_string s pos in
          (k, v))
    in
    Prov_node.Form_submission { fields }
  | k -> Relstore.Errors.corrupt "prov_log: unknown node kind %d" k

let encode_op buf = function
  | Add_node n ->
    Buffer.add_char buf '\000';
    V.write_unsigned buf n.Prov_node.id;
    write_kind buf n.Prov_node.kind;
    write_opt_int buf n.Prov_node.time;
    write_opt_int buf n.Prov_node.close_time
  | Add_edge { src; dst; edge } ->
    Buffer.add_char buf '\001';
    V.write_unsigned buf src;
    V.write_unsigned buf dst;
    V.write_unsigned buf (Prov_edge.kind_code edge.Prov_edge.kind);
    V.write_signed buf edge.Prov_edge.time
  | Close_node { id; time } ->
    Buffer.add_char buf '\002';
    V.write_unsigned buf id;
    V.write_signed buf time

let decode_op s pos =
  if !pos >= String.length s then Relstore.Errors.corrupt "prov_log: truncated op tag"
  else begin
    let tag = s.[!pos] in
    incr pos;
    match tag with
    | '\000' ->
      let id = V.read_unsigned s pos in
      let kind = read_kind s pos in
      let time = read_opt_int s pos in
      let close_time = read_opt_int s pos in
      Add_node { Prov_node.id; kind; time; close_time }
    | '\001' ->
      let src = V.read_unsigned s pos in
      let dst = V.read_unsigned s pos in
      let kind = Prov_edge.kind_of_code (V.read_unsigned s pos) in
      let time = V.read_signed s pos in
      Add_edge { src; dst; edge = { Prov_edge.kind; time } }
    | '\002' ->
      let id = V.read_unsigned s pos in
      let time = V.read_signed s pos in
      Close_node { id; time }
    | c -> Relstore.Errors.corrupt "prov_log: unknown op tag %d" (Char.code c)
  end

(* --- journal --- *)

(* Format v1 (legacy): magic followed by bare op encodings.  A bit flip
   mid-file silently garbles every later record; only a truncated tail
   is detectable.  Format v2 frames each record as
   [varint length][CRC-32][payload] so corruption *anywhere* is caught
   and recovery stops at the last verified prefix. *)
let magic_v1 = "PROVLOG1"
let magic_v2 = "PROVLOG2"

let format_version s =
  let probe m = String.length s >= String.length m && String.sub s 0 (String.length m) = m in
  if probe magic_v2 then Some 2 else if probe magic_v1 then Some 1 else None

type t = { buf : Buffer.t; scratch : Buffer.t; mutable count : int }

let create () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic_v2;
  { buf; scratch = Buffer.create 128; count = 0 }

let encode_framed_op scratch op =
  Buffer.clear scratch;
  encode_op scratch op;
  Buffer.contents scratch

let decode_framed_op s pos =
  let payload = C.read_frame s pos in
  let p = ref 0 in
  let op = decode_op payload p in
  if !p <> String.length payload then
    Relstore.Errors.corrupt "prov_log: %d trailing bytes inside frame"
      (String.length payload - !p);
  op

let m_journal_appends = Obs.Metrics.counter Obs.Names.journal_appends

let append t op =
  C.write_frame t.buf (encode_framed_op t.scratch op);
  t.count <- t.count + 1;
  Obs.Metrics.incr m_journal_appends

let length t = t.count
let byte_size t = Buffer.length t.buf
let to_bytes t = Buffer.contents t.buf

(* Decode every record of a journal image (either format).  Returns the
   ops and whether the whole image was consumed cleanly; in tolerant
   mode a bad record ends the scan (the crash-recovery prefix), in
   strict mode it raises. *)
let decode_prefix ~tolerate_truncation s =
  let decode_one =
    match format_version s with
    | Some 2 -> decode_framed_op
    | Some 1 -> decode_op
    | _ -> Relstore.Errors.corrupt "prov_log: bad magic"
  in
  let pos = ref 8 (* both magics are 8 bytes *) in
  let ops = ref [] in
  let clean = ref true in
  (try
     while !pos < String.length s do
       (* Remember where this record started: a damaged record decodes
          partially and must be discarded wholesale. *)
       let start = !pos in
       match decode_one s pos with
       | op -> ops := op :: !ops
       | exception Relstore.Errors.Corrupt _ when tolerate_truncation ->
         pos := start;
         clean := false;
         raise Exit
     done
   with Exit -> ());
  (List.rev !ops, !clean)

let decode_all ~tolerate_truncation s = fst (decode_prefix ~tolerate_truncation s)

let of_bytes ?(tolerate_truncation = true) s =
  let ops, clean = decode_prefix ~tolerate_truncation s in
  if not clean then
    Obs.Flight.record "journal.load.truncated"
      ~attrs:
        [
          ("ops_salvaged", string_of_int (List.length ops));
          ("bytes", string_of_int (String.length s));
        ];
  let t = create () in
  List.iter (append t) ops;
  t

let ops t = decode_all ~tolerate_truncation:false (to_bytes t)

let to_bytes_v1 t =
  let buf = Buffer.create (byte_size t) in
  Buffer.add_string buf magic_v1;
  List.iter (encode_op buf) (ops t);
  Buffer.contents buf

let op_of_mutation (m : Prov_store.mutation) : op = m

let apply_op store op =
  match op with
  | Add_node n -> Prov_store.restore_node store n
  | Add_edge { src; dst; edge } -> Prov_store.restore_edge store ~src ~dst edge
  | Close_node { id; time } -> begin
    match Prov_store.node_opt store id with
    | Some n -> Prov_store.restore_node store { n with Prov_node.close_time = Some time }
    | None -> ()
  end

(* Refolding this stream into matview registries leaves them
   snapshot-consistent with the store — the WAL recovery path hands
   exactly this stream to [Segmented.recover]'s [?views]. *)
let ops_of_store store =
  let ops = ref [] in
  Prov_store.iter_contents store (fun op -> ops := op :: !ops);
  List.rev !ops

let recording_store () =
  let store = Prov_store.create () in
  let journal = create () in
  Prov_store.set_observer store (fun m -> append journal (op_of_mutation m));
  (store, journal)

let replay t =
  let store = Prov_store.create () in
  List.iter (apply_op store) (ops t);
  store

let save t ~path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_bytes t))

let load ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_bytes (really_input_string ic len))

let compact store = (Prov_schema.to_database store, create ())

(* --- segmented write-ahead log --- *)

module Segmented = struct
  module Fio = Provkit_util.Faulty_io

  (* WAL health metrics: every durability-relevant action ticks a
     counter, so `provctl stats` can report appends/fsyncs/rotations/
     compactions and recovery outcomes without bespoke accounting. *)
  let m_appends = Obs.Metrics.counter Obs.Names.wal_appends
  let m_fsyncs = Obs.Metrics.counter Obs.Names.wal_fsyncs
  let m_rotations = Obs.Metrics.counter Obs.Names.wal_rotations
  let m_compactions = Obs.Metrics.counter Obs.Names.wal_compactions
  let m_snapshots = Obs.Metrics.counter Obs.Names.wal_snapshots
  let m_bytes = Obs.Metrics.counter Obs.Names.wal_bytes_written
  let m_recoveries = Obs.Metrics.counter Obs.Names.wal_recoveries
  let m_recovered_ops = Obs.Metrics.counter Obs.Names.wal_recovered_ops
  let m_recovered_segments = Obs.Metrics.counter Obs.Names.wal_recovered_segments
  let m_recoveries_truncated = Obs.Metrics.counter Obs.Names.wal_recoveries_truncated
  let h_batch_ops = Obs.Metrics.histogram Obs.Names.wal_batch_ops
  let g_fsyncs_per_append = Obs.Metrics.gauge Obs.Names.wal_fsyncs_per_append

  type config = {
    max_segment_bytes : int;
    group_commit_ops : int;
    group_commit_bytes : int;
  }

  (* group_commit_ops = 1 keeps the historical contract: every append
     is durable before [append] returns. *)
  let default_config =
    { max_segment_bytes = 256 * 1024; group_commit_ops = 1; group_commit_bytes = 64 * 1024 }

  let manifest_magic = "PROVMAN1"
  let snapshot_magic = "PROVSNP1"
  let manifest_file = "MANIFEST"

  type manifest = {
    generation : int;
    snapshot : string option;  (* file holding the compacted base image *)
    segments : string list;  (* live tail segments, oldest first *)
  }

  let encode_manifest m =
    let buf = Buffer.create 128 in
    V.write_unsigned buf m.generation;
    (match m.snapshot with
    | None -> Buffer.add_char buf '\000'
    | Some f ->
      Buffer.add_char buf '\001';
      C.write_string buf f);
    V.write_unsigned buf (List.length m.segments);
    List.iter (C.write_string buf) m.segments;
    Buffer.contents buf

  let decode_manifest s =
    let lm = String.length manifest_magic in
    if String.length s < lm || String.sub s 0 lm <> manifest_magic then
      Relstore.Errors.corrupt "wal: bad manifest magic";
    let pos = ref lm in
    let payload = C.read_frame s pos in
    let p = ref 0 in
    let generation = V.read_unsigned payload p in
    let snapshot =
      if !p >= String.length payload then Relstore.Errors.corrupt "wal: truncated manifest"
      else begin
        let tag = payload.[!p] in
        incr p;
        match tag with
        | '\000' -> None
        | '\001' -> Some (C.read_string payload p)
        | _ -> Relstore.Errors.corrupt "wal: bad manifest snapshot tag"
      end
    in
    let n = C.read_count payload p in
    let segments = List.init n (fun _ -> C.read_string payload p) in
    { generation; snapshot; segments }

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))

  (* The manifest is tiny and names the live files, so it is replaced
     atomically (write-then-rename): a crash leaves either the old or
     the new manifest, never a torn one. *)
  let write_manifest ~dir m =
    let buf = Buffer.create 160 in
    Buffer.add_string buf manifest_magic;
    C.write_frame buf (encode_manifest m);
    let tmp = Filename.concat dir (manifest_file ^ ".tmp") in
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (Buffer.contents buf));
    Sys.rename tmp (Filename.concat dir manifest_file)

  type handle = {
    dir : string;
    config : config;
    make_sink : string -> Fio.sink;
    mutable manifest : manifest;
    mutable active : Fio.sink;
    mutable active_bytes : int;
    mutable next_index : int;
    mutable appended : int;
    mutable pending_ops : int;  (* appends written but not yet flushed *)
    mutable pending_bytes : int;
    mutable batch_fsyncs : int;  (* append-driven fsyncs (headers excluded) *)
    scratch : Buffer.t;
  }

  let segment_file i = Printf.sprintf "segment-%06d.log" i
  let snapshot_file gen = Printf.sprintf "snapshot-%06d.db" gen

  let start_segment h =
    let name = segment_file h.next_index in
    h.next_index <- h.next_index + 1;
    let sink = h.make_sink (Filename.concat h.dir name) in
    Fio.write sink magic_v2;
    Fio.flush sink;
    Obs.Metrics.incr m_fsyncs;
    Obs.Metrics.add m_bytes (String.length magic_v2);
    h.active <- sink;
    h.active_bytes <- String.length magic_v2;
    (* Segment file exists before the manifest names it. *)
    h.manifest <- { h.manifest with segments = h.manifest.segments @ [ name ] };
    write_manifest ~dir:h.dir h.manifest

  let read_manifest dir =
    let path = Filename.concat dir manifest_file in
    if Sys.file_exists path then decode_manifest (read_file path)
    else { generation = 0; snapshot = None; segments = [] }

  let next_index_of manifest =
    (* Segment names are zero-padded, so the successor of the last name
       is recoverable by parsing its digits. *)
    List.fold_left
      (fun acc name ->
        match Scanf.sscanf_opt name "segment-%d.log" (fun i -> i) with
        | Some i -> max acc (i + 1)
        | None -> acc)
      0 manifest.segments

  let open_ ?(config = default_config) ?(make_sink = fun path -> Fio.to_file path) dir =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let manifest = read_manifest dir in
    let h =
      {
        dir;
        config;
        make_sink;
        manifest;
        active = Fio.to_buffer (Buffer.create 1);
        active_bytes = 0;
        next_index = next_index_of manifest;
        appended = 0;
        pending_ops = 0;
        pending_bytes = 0;
        batch_fsyncs = 0;
        scratch = Buffer.create 128;
      }
    in
    (* Never append to a recovered segment: its tail may be torn, and
       bytes after a torn frame are unreachable to recovery.  A fresh
       segment keeps every new record behind a verified prefix. *)
    start_segment h;
    h

  let active_sink h = h.active
  let segments h = h.manifest.segments
  let generation h = h.manifest.generation
  let appended h = h.appended
  let pending h = h.pending_ops

  (* Group commit: persist every written-but-unflushed append with one
     sink flush.  The batch-size histogram and the fsyncs-per-append
     gauge are the ground truth the bench rows and provctl stats report
     — a flush of k ops is one fsync amortized over k appends. *)
  let flush_pending h =
    if h.pending_ops > 0 then begin
      let ops = h.pending_ops in
      if ops > 1 then
        Obs.Trace.with_span Obs.Names.span_wal_flush
          ~attrs:[ ("ops", string_of_int ops); ("bytes", string_of_int h.pending_bytes) ]
          (fun () -> Fio.flush h.active)
      else Fio.flush h.active;
      h.pending_ops <- 0;
      h.pending_bytes <- 0;
      h.batch_fsyncs <- h.batch_fsyncs + 1;
      Obs.Metrics.incr m_fsyncs;
      Obs.Metrics.observe h_batch_ops ops;
      if h.appended > 0 then
        Obs.Metrics.set_gauge g_fsyncs_per_append
          (float_of_int h.batch_fsyncs /. float_of_int h.appended)
    end

  let durable h = flush_pending h

  let rotate h =
    flush_pending h;
    Fio.close h.active;
    Obs.Metrics.incr m_rotations;
    start_segment h

  let maybe_commit h =
    if
      h.pending_ops >= h.config.group_commit_ops
      || h.pending_bytes >= h.config.group_commit_bytes
    then flush_pending h;
    if h.active_bytes >= h.config.max_segment_bytes then rotate h

  let append h op =
    let frame = Buffer.create 160 in
    C.write_frame frame (encode_framed_op h.scratch op);
    Fio.write h.active (Buffer.contents frame);
    h.active_bytes <- h.active_bytes + Buffer.length frame;
    h.appended <- h.appended + 1;
    h.pending_ops <- h.pending_ops + 1;
    h.pending_bytes <- h.pending_bytes + Buffer.length frame;
    Obs.Metrics.incr m_appends;
    Obs.Metrics.add m_bytes (Buffer.length frame);
    Obs.Timeseries.pulse ();
    maybe_commit h

  (* One sink write and (at most) one flush for the whole list: the
     batch ingest path.  A crash mid-batch tears within that single
     write, so recovery keeps a frame-aligned prefix of it. *)
  let append_batch h ops =
    match ops with
    | [] -> ()
    | _ :: _ ->
      let buf = Buffer.create 1024 in
      List.iter (fun op -> C.write_frame buf (encode_framed_op h.scratch op)) ops;
      let n = List.length ops in
      Fio.write h.active (Buffer.contents buf);
      h.active_bytes <- h.active_bytes + Buffer.length buf;
      h.appended <- h.appended + n;
      h.pending_ops <- h.pending_ops + n;
      h.pending_bytes <- h.pending_bytes + Buffer.length buf;
      Obs.Metrics.add m_appends n;
      Obs.Metrics.add m_bytes (Buffer.length buf);
      maybe_commit h

  let attach h store = Prov_store.set_observer store (fun m -> append h (op_of_mutation m))

  let write_snapshot h store =
    let name = snapshot_file (h.manifest.generation + 1) in
    let sink = h.make_sink (Filename.concat h.dir name) in
    Fio.write sink snapshot_magic;
    let buf = Buffer.create 4096 in
    C.write_frame buf (Relstore.Database.to_bytes (Prov_schema.to_database store));
    Fio.write sink (Buffer.contents buf);
    Fio.close sink;
    Obs.Metrics.incr m_snapshots;
    Obs.Metrics.add m_bytes (String.length snapshot_magic + Buffer.length buf);
    name

  (* Compaction: persist the live store as a checksummed snapshot, then
     truncate the tail — old segments (and the previous snapshot) are
     dropped and appending continues into a fresh, empty segment. *)
  let compact h store =
    Obs.Trace.with_span Obs.Names.span_wal_compact ~attrs:[ ("dir", h.dir) ] (fun () ->
        let old = h.manifest in
        flush_pending h;
        let snap = write_snapshot h store in
        Fio.close h.active;
        h.manifest <-
          { generation = old.generation + 1; snapshot = Some snap; segments = [] };
        start_segment h;
        let remove name =
          let path = Filename.concat h.dir name in
          if Sys.file_exists path then Sys.remove path
        in
        List.iter remove old.segments;
        Option.iter remove old.snapshot;
        Obs.Metrics.incr m_compactions)

  let close h =
    flush_pending h;
    Fio.close h.active

  type recovery = {
    store : Prov_store.t;
    ops_applied : int;
    segments_read : int;
    truncated : bool;
  }

  let read_snapshot path =
    let s = read_file path in
    let lm = String.length snapshot_magic in
    if String.length s < lm || String.sub s 0 lm <> snapshot_magic then
      Relstore.Errors.corrupt "wal: bad snapshot magic";
    let pos = ref lm in
    Prov_schema.of_database (Relstore.Database.of_bytes (C.read_frame s pos))

  let recover ?views ~dir () =
    Obs.Trace.with_span Obs.Names.span_wal_recover ~attrs:[ ("dir", dir) ] (fun () ->
    let manifest = read_manifest dir in
    let store =
      match manifest.snapshot with
      | None -> Prov_store.create ()
      | Some f -> read_snapshot (Filename.concat dir f)
    in
    let ops_applied = ref 0 in
    let segments_read = ref 0 in
    let truncated = ref false in
    (* Replay stops at the first unverifiable frame — even in an early
       segment — so the recovered store is always an op-sequence prefix
       of what was logged; nothing after a damaged record is trusted. *)
    (try
       List.iter
         (fun name ->
           let path = Filename.concat dir name in
           if not (Sys.file_exists path) then begin
             truncated := true;
             raise Exit
           end;
           let ops, clean =
             (* A segment whose header itself is damaged contributes
                nothing; recovery ends at the previous segment. *)
             try decode_prefix ~tolerate_truncation:true (read_file path)
             with Relstore.Errors.Corrupt _ -> ([], false)
           in
           incr segments_read;
           List.iter
             (fun op ->
               apply_op store op;
               incr ops_applied)
             ops;
           if not clean then begin
             truncated := true;
             raise Exit
           end)
         manifest.segments
     with Exit -> ());
    Obs.Metrics.incr m_recoveries;
    Obs.Metrics.add m_recovered_ops !ops_applied;
    Obs.Metrics.add m_recovered_segments !segments_read;
    if !truncated then begin
      Obs.Metrics.incr m_recoveries_truncated;
      Obs.Flight.record "wal.recovery.truncated"
        ~attrs:
          [
            ("dir", dir);
            ("ops_applied", string_of_int !ops_applied);
            ("segments_read", string_of_int !segments_read);
          ]
    end;
    (* Views rebuild from the recovered store itself, not the raw
       segment bytes, so they are snapshot-consistent with the tables
       even when replay stopped at a torn frame. *)
    (match views with
    | None -> ()
    | Some registry -> Relstore.Matview.rebuild registry (ops_of_store store));
    { store; ops_applied = !ops_applied; segments_read = !segments_read; truncated = !truncated })

  (* The manifest-sanity health check: the manifest must decode and
     every file it names (snapshot + live segments) must exist.  A
     missing directory or manifest reads as Degraded (nothing durable
     yet, but nothing lost); a manifest that names absent files means
     recovery would truncate — Failing. *)
  let manifest_check ~dir () =
    if not (Sys.file_exists dir) then
      (Obs.Health.Degraded, Printf.sprintf "wal directory %s missing (nothing durable yet)" dir)
    else if not (Sys.file_exists (Filename.concat dir manifest_file)) then
      (Obs.Health.Degraded, "no manifest yet")
    else
      match read_manifest dir with
      | exception Relstore.Errors.Corrupt msg ->
        (Obs.Health.Failing, Printf.sprintf "manifest corrupt: %s" msg)
      | m ->
        let named = (match m.snapshot with None -> [] | Some f -> [ f ]) @ m.segments in
        let missing =
          List.filter (fun f -> not (Sys.file_exists (Filename.concat dir f))) named
        in
        if missing <> [] then
          ( Obs.Health.Failing,
            Printf.sprintf "manifest names missing files: %s" (String.concat ", " missing) )
        else
          ( Obs.Health.Ok,
            Printf.sprintf "generation %d, %d segment(s)%s" m.generation
              (List.length m.segments)
              (match m.snapshot with None -> "" | Some f -> ", snapshot " ^ f) )

  let register_manifest_check ~dir =
    Obs.Health.register Obs.Names.health_wal_manifest (manifest_check ~dir)
end
