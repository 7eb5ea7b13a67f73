(* Spans recorded by the benchmark around its calls into the program's
   layers — the program itself is not instrumented for this.  Each
   domain records into its own buffer (no sharing, no locks); buffers
   are merged when the run ends, turned into per-name self times, and
   written out as JSON lines. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  start_ns : int;
  stop_ns : int;
}

type t = {
  enabled : bool;
  id_base : int;  (** keeps ids unique across per-domain buffers *)
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;
}

let create ~enabled ~domain =
  { enabled; id_base = domain lsl 40; next = 1; stack = []; spans = [] }

let disabled = create ~enabled:false ~domain:0

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.id_base lor t.next in
    t.next <- t.next + 1;
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.stack <- id :: t.stack;
    let start_ns = Common.now_ns () in
    let finish () =
      let stop_ns = Common.now_ns () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; name; start_ns; stop_ns } :: t.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans bufs = List.concat_map (fun t -> t.spans) bufs
let dur s = s.stop_ns - s.start_ns

type agg = { count : int; total_ns : int; self_ns : int }

(* Per-name totals.  A span's self time is its duration minus the part
   its direct children cover. *)
let aggregate spans =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_ns s.parent
          (dur s + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = dur s - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id) in
      let a =
        Option.value ~default:{ count = 0; total_ns = 0; self_ns = 0 }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        { count = a.count + 1; total_ns = a.total_ns + dur s; self_ns = a.self_ns + self })
    spans;
  by_name

let total by_name name =
  match Hashtbl.find_opt by_name name with
  | Some a -> a
  | None -> { count = 0; total_ns = 0; self_ns = 0 }

(* Mean duration of the spans called [name], in microseconds. *)
let mean_us by_name name =
  let a = total by_name name in
  if a.count = 0 then 0.0 else float_of_int a.total_ns /. float_of_int a.count /. 1e3

let render by_name =
  let rows =
    List.sort compare (Hashtbl.fold (fun name a acc -> (name, a) :: acc) by_name [])
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-28s %9s %12s %12s %11s\n" "span" "count" "total_ms" "self_ms"
       "mean_us");
  List.iter
    (fun (name, a) ->
      Buffer.add_string b
        (Printf.sprintf "%-28s %9d %12.3f %12.3f %11.2f\n" name a.count
           (Common.ms_of_ns a.total_ns) (Common.ms_of_ns a.self_ns)
           (float_of_int a.total_ns /. float_of_int (max 1 a.count) /. 1e3)))
    rows;
  Buffer.contents b

let write_jsonl ~path ~run_id spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"run\":%S,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
            run_id s.id s.parent s.name s.start_ns s.stop_ns)
        (List.sort (fun a b -> compare a.start_ns b.start_ns) spans))
