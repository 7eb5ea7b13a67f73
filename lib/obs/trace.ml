(* Span-based tracing: structured (name, attrs, start, duration) events
   kept in a bounded in-memory ring, with an optional sink for streaming
   each span out (e.g. as JSONL) the moment it closes.  Recording obeys
   the same global switch as the metrics registry, so traced hot paths
   cost one branch when observability is off.

   Spans form trees: [with_span] maintains an ambient stack of open
   frames, so nested calls link automatically via trace_id / span_id /
   parent_id.  Ids come from a seeded splitmix64 stream
   ([Provkit_util.Prng]), never from wall clock, so a seeded run yields
   a reproducible id sequence. *)

type span = {
  name : string;
  attrs : (string * string) list;
  start_ns : int64;
  dur_ns : int64;
  trace_id : int64;
  span_id : int64;
  parent_id : int64 option;
}

type open_span = {
  o_name : string;
  o_trace_id : int64;
  o_span_id : int64;
  o_parent_id : int64 option;
  o_start_ns : int64;
}

type tree = { node : span; children : tree list }

let m_spans = Metrics.counter Names.trace_spans
let m_dropped = Metrics.counter Names.trace_dropped

let default_capacity = 1024

let ring : (unit, span) Provkit_util.Ring.t = Provkit_util.Ring.create default_capacity

(* Serializes the ring and the id stream: under provd spans close on
   every domain, and an unguarded ring update would tear. *)
let lock = Mutex.create ()

let sink : (span -> unit) option ref = ref None

let set_sink f = sink := f

let capacity () = Mutex.protect lock (fun () -> Provkit_util.Ring.capacity ring)
let clear () = Mutex.protect lock (fun () -> Provkit_util.Ring.clear ring)

let set_capacity n =
  if n < 1 then invalid_arg "Trace.set_capacity: capacity must be positive";
  Mutex.protect lock (fun () ->
      Provkit_util.Ring.clear ring;
      ignore (Provkit_util.Ring.resize ring n))

(* --- span ids --- *)

let id_rng = ref (Provkit_util.Prng.create 0x0b5)

let seed_ids seed = Mutex.protect lock (fun () -> id_rng := Provkit_util.Prng.create seed)

(* 0 is reserved to mean "no id" (v1 JSONL lines deserialize to it). *)
let fresh_id () =
  Mutex.protect lock (fun () ->
      let rec go () =
        let v = Provkit_util.Prng.bits64 !id_rng in
        if Int64.equal v 0L then go () else v
      in
      go ())

(* --- ambient open-span stack --- *)

type frame = { f_name : string; f_trace_id : int64; f_span_id : int64; f_start_ns : int64 }

(* The open-frame stack is ambient *per domain*: a span opened on the
   ingest domain must never become the parent of a span recorded on a
   reader domain, so each domain gets its own stack via DLS. *)
let stack_key : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let open_spans () =
  let rec build = function
    | [] -> []
    | f :: rest ->
        let parent = match rest with [] -> None | p :: _ -> Some p.f_span_id in
        {
          o_name = f.f_name;
          o_trace_id = f.f_trace_id;
          o_span_id = f.f_span_id;
          o_parent_id = parent;
          o_start_ns = f.f_start_ns;
        }
        :: build rest
  in
  build !(stack ())

let push s =
  Mutex.protect lock (fun () ->
      if Option.is_some (Provkit_util.Ring.push ring s) then Metrics.incr m_dropped);
  Metrics.incr m_spans;
  match !sink with None -> () | Some f -> f s

let record ?(attrs = []) name ~start_ns ~dur_ns =
  if Metrics.enabled () then begin
    let trace_id, parent_id, start_ns =
      match !(stack ()) with
      | [] -> (fresh_id (), None, start_ns)
      | f :: _ ->
          (* enclosure invariant: a child cannot start before the frame
             it is recorded under *)
          let start_ns = if Int64.compare start_ns f.f_start_ns < 0 then f.f_start_ns else start_ns in
          (f.f_trace_id, Some f.f_span_id, start_ns)
    in
    push { name; attrs; start_ns; dur_ns; trace_id; span_id = fresh_id (); parent_id }
  end

let with_span ?(attrs = []) name f =
  if Metrics.enabled () then begin
    let start_ns = Provkit_util.Timing.now_ns () in
    let stack = stack () in
    let trace_id, parent_id =
      match !stack with [] -> (fresh_id (), None) | fr :: _ -> (fr.f_trace_id, Some fr.f_span_id)
    in
    let span_id = fresh_id () in
    stack := { f_name = name; f_trace_id = trace_id; f_span_id = span_id; f_start_ns = start_ns } :: !stack;
    let finally () =
      (match !stack with [] -> () | _ :: rest -> stack := rest);
      let dur_ns = Int64.sub (Provkit_util.Timing.now_ns ()) start_ns in
      push { name; attrs; start_ns; dur_ns; trace_id; span_id; parent_id }
    in
    Fun.protect ~finally f
  end
  else f ()

let recent () = Mutex.protect lock (fun () -> Provkit_util.Ring.to_list ring)
let recorded () = Mutex.protect lock (fun () -> Provkit_util.Ring.pushed ring)

(* --- tree assembly --- *)

(* Children close before their parents, so in an oldest-first list every
   span's children precede it.  One pass with a pending-children table
   keyed by parent id therefore assembles all trees; spans whose parent
   was overwritten in the ring surface as extra roots. *)
let assemble spans =
  let pending : (int64, tree list) Hashtbl.t = Hashtbl.create 64 in
  let roots = ref [] in
  List.iter
    (fun s ->
      let children =
        match Hashtbl.find_opt pending s.span_id with
        | None -> []
        | Some ts ->
            Hashtbl.remove pending s.span_id;
            List.rev ts
      in
      let t = { node = s; children } in
      match s.parent_id with
      | None -> roots := t :: !roots
      | Some p ->
          let siblings = match Hashtbl.find_opt pending p with None -> [] | Some ts -> ts in
          Hashtbl.replace pending p (t :: siblings))
    spans;
  let orphans = Hashtbl.fold (fun _ ts acc -> List.rev_append ts acc) pending [] in
  List.rev_append !roots orphans

(* Parent/child pairs where the child's [start, start+dur] interval is
   not contained in the parent's.  Empty on anything the tracer itself
   produced; exposed so tests can state the invariant. *)
let enclosure_violations spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.span_id s) spans;
  List.filter_map
    (fun s ->
      match s.parent_id with
      | None -> None
      | Some pid -> (
          match Hashtbl.find_opt by_id pid with
          | None -> None
          | Some p ->
              let end_ns x = Int64.add x.start_ns x.dur_ns in
              if Int64.compare s.start_ns p.start_ns < 0 || Int64.compare (end_ns s) (end_ns p) > 0
              then
                Some
                  (Printf.sprintf "span %S [%Ld,%Ld] not enclosed by parent %S [%Ld,%Ld]" s.name
                     s.start_ns (end_ns s) p.name p.start_ns (end_ns p))
              else None))
    spans

(* --- folded stacks --- *)

(* "root;child;leaf self_ns" aggregation in the format flamegraph
   tooling consumes.  Self time is a span's duration minus the summed
   durations of its direct children (clamped at zero against clock
   jitter). *)
let folded spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.span_id s) spans;
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent_id with
      | None -> ()
      | Some pid ->
          if Hashtbl.mem by_id pid then
            let prev = match Hashtbl.find_opt child_ns pid with None -> 0L | Some v -> v in
            Hashtbl.replace child_ns pid (Int64.add prev s.dur_ns))
    spans;
  let rec path s =
    match s.parent_id with
    | None -> [ s.name ]
    | Some pid -> (
        match Hashtbl.find_opt by_id pid with None -> [ s.name ] | Some p -> path p @ [ s.name ])
  in
  let acc = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun s ->
      let consumed = match Hashtbl.find_opt child_ns s.span_id with None -> 0L | Some v -> v in
      let self = Int64.sub s.dur_ns consumed in
      let self = if Int64.compare self 0L < 0 then 0L else self in
      let key = String.concat ";" (path s) in
      match Hashtbl.find_opt acc key with
      | None ->
          Hashtbl.replace acc key self;
          order := key :: !order
      | Some prev -> Hashtbl.replace acc key (Int64.add prev self))
    spans;
  List.rev_map (fun key -> (key, Hashtbl.find acc key)) !order

(* --- rendering --- *)

let render_trees trees =
  let buf = Buffer.create 256 in
  let rec go depth t =
    Buffer.add_string buf
      (Printf.sprintf "%s%s  %.3f ms\n" (String.make (2 * depth) ' ') t.node.name
         (Int64.to_float t.node.dur_ns /. 1e6));
    List.iter (go (depth + 1)) t.children
  in
  List.iter (go 0) trees;
  Buffer.contents buf

(* --- JSONL (v2, with a v1-compatible reader) --- *)

let span_to_json s =
  let buf = Buffer.create 160 in
  Buffer.add_string buf
    (Printf.sprintf "{\"v\":2,\"name\":\"%s\",\"trace_id\":\"%Lx\",\"span_id\":\"%Lx\",\"parent_id\":%s,\"start_ns\":%Ld,\"dur_ns\":%Ld,\"attrs\":{"
       (Metrics.json_escape s.name) s.trace_id s.span_id
       (match s.parent_id with None -> "null" | Some p -> Printf.sprintf "\"%Lx\"" p)
       s.start_ns s.dur_ns);
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":\"%s\"" (Metrics.json_escape k) (Metrics.json_escape v)))
    s.attrs;
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* Minimal JSON-object reader for the flat lines this tree emits (span
   lines, slow-log entries): string/number/null values plus one nested
   "attrs" object.  Strings decode every escape Metrics.json_escape
   writes, [\uXXXX] included. *)
module Jsonl_reader = struct
  type tok = { src : string; mutable pos : int }

  exception Bad

  let peek t = if t.pos < String.length t.src then Some t.src.[t.pos] else None

  let skip_ws t =
    while t.pos < String.length t.src && (t.src.[t.pos] = ' ' || t.src.[t.pos] = '\t') do
      t.pos <- t.pos + 1
    done

  let expect t c =
    skip_ws t;
    match peek t with
    | Some c' when c' = c -> t.pos <- t.pos + 1
    | Some _ | None -> raise Bad

  let string t =
    expect t '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if t.pos >= String.length t.src then raise Bad;
      match t.src.[t.pos] with
      | '"' -> t.pos <- t.pos + 1
      | '\\' ->
          if t.pos + 1 >= String.length t.src then raise Bad;
          (match t.src.[t.pos + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              let hex = try String.sub t.src (t.pos + 2) 4 with Invalid_argument _ -> raise Bad in
              let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
              let cp = if String.for_all is_hex hex then int_of_string ("0x" ^ hex) else -1 in
              if not (Uchar.is_valid cp) then raise Bad;
              Buffer.add_utf_8_uchar buf (Uchar.of_int cp);
              t.pos <- t.pos + 4
          | c -> Buffer.add_char buf c);
          t.pos <- t.pos + 2;
          go ()
      | c ->
          Buffer.add_char buf c;
          t.pos <- t.pos + 1;
          go ()
    in
    go ();
    Buffer.contents buf

  let scalar t =
    skip_ws t;
    let start = t.pos in
    while
      t.pos < String.length t.src
      && match t.src.[t.pos] with '0' .. '9' | 'a' .. 'z' | 'E' | '-' | '+' | '.' -> true | _ -> false
    do
      t.pos <- t.pos + 1
    done;
    if t.pos = start then raise Bad;
    String.sub t.src start (t.pos - start)

  (* One object, calling [member key] positioned at each value. *)
  let obj t member =
    expect t '{';
    skip_ws t;
    if peek t = Some '}' then t.pos <- t.pos + 1
    else
      let rec members () =
        let key = string t in
        expect t ':';
        skip_ws t;
        member key;
        skip_ws t;
        match peek t with
        | Some ',' ->
            t.pos <- t.pos + 1;
            skip_ws t;
            members ()
        | Some '}' -> t.pos <- t.pos + 1
        | Some _ | None -> raise Bad
      in
      members ()

  let fields line =
    let t = { src = line; pos = 0 } in
    let scalars = ref [] and attrs = ref [] in
    obj t (fun key ->
        if key = "attrs" then obj t (fun k -> attrs := (k, string t) :: !attrs)
        else scalars := (key, if peek t = Some '"' then string t else scalar t) :: !scalars);
    (!scalars, List.rev !attrs)
end

let span_of_json line =
  match Jsonl_reader.fields line with
  | exception Jsonl_reader.Bad -> None
  | scalars, attrs -> (
      let find k = List.assoc_opt k scalars in
      let id_of s = Int64.of_string ("0x" ^ s) in
      match (find "name", find "start_ns", find "dur_ns") with
      | Some name, Some start_ns, Some dur_ns -> (
          try
            let trace_id = match find "trace_id" with None -> 0L | Some s -> id_of s in
            let span_id = match find "span_id" with None -> 0L | Some s -> id_of s in
            let parent_id =
              match find "parent_id" with None | Some "null" -> None | Some s -> Some (id_of s)
            in
            Some
              {
                name;
                attrs;
                start_ns = Int64.of_string start_ns;
                dur_ns = Int64.of_string dur_ns;
                trace_id;
                span_id;
                parent_id;
              }
          with Failure _ -> None)
      | _, _, _ -> None)

let dump_jsonl oc = List.iter (fun s -> output_string oc (span_to_json s ^ "\n")) (recent ())
