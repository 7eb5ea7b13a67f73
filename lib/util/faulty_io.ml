type fault =
  | Crash_after_bytes of int
  | Torn_final_write of int
  | Flip_byte of int
  | Duplicate_flush

type dest = To_file of { path : string; fd : Unix.file_descr } | To_buffer of Buffer.t

(* The honest stream is every byte offered by [write], in order.  The
   destination holds a fault-adjusted prefix of it; the sink remembers
   only what it needs to extend or repair that prefix: the bytes since
   the last flush, where the final write began, how many bytes the
   destination holds and which of them it holds complemented. *)
type sink = {
  dest : dest;
  mutable faults : fault list;
  pending : Buffer.t;  (* bytes written since the last flush *)
  mutable written : int;  (* stream length: bytes offered by [write] *)
  mutable flushed : int;  (* stream length at the last flush *)
  mutable final_write : int;  (* stream offset of the final write; -1 before any *)
  mutable on_disk : int;  (* bytes the destination holds *)
  mutable flipped : int list;  (* offsets the destination holds complemented *)
  mutable closed : bool;
}

let create ?(faults = []) dest =
  {
    dest;
    faults;
    pending = Buffer.create 4096;
    written = 0;
    flushed = 0;
    final_write = -1;
    on_disk = 0;
    flipped = [];
    closed = false;
  }

let to_file ?faults path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o666 in
  create ?faults (To_file { path; fd })

let to_buffer ?faults buf =
  Buffer.clear buf;
  create ?faults (To_buffer buf)

let arm t faults = t.faults <- t.faults @ faults
let fail_closed t op = if t.closed then invalid_arg ("Faulty_io." ^ op ^ ": sink is closed")

(* --- destination primitives: the only code that touches the bytes --- *)

let append t b =
  (match t.dest with
  | To_buffer buf -> Buffer.add_bytes buf b
  | To_file { fd; _ } -> ignore (Unix.write fd b 0 (Bytes.length b)));
  t.on_disk <- t.on_disk + Bytes.length b

let cut t n =
  (match t.dest with
  | To_buffer buf -> Buffer.truncate buf n
  | To_file { fd; _ } ->
    Unix.ftruncate fd n;
    ignore (Unix.lseek fd n Unix.SEEK_SET));
  t.on_disk <- n;
  t.flipped <- List.filter (fun k -> k < n) t.flipped

(* Complement one byte already on the destination (a flip armed after
   its offset was persisted, or a repeated flip undoing it). *)
let toggle t k =
  let flip c = Char.chr (Char.code c lxor 0xFF) in
  (match t.dest with
  | To_buffer buf ->
    let tail = Buffer.sub buf k (Buffer.length buf - k) in
    Buffer.truncate buf k;
    Buffer.add_char buf (flip tail.[0]);
    Buffer.add_substring buf tail 1 (String.length tail - 1)
  | To_file { fd; _ } ->
    let b = Bytes.create 1 in
    ignore (Unix.lseek fd k Unix.SEEK_SET);
    if Unix.read fd b 0 1 <> 1 then failwith "Faulty_io: short read";
    Bytes.set b 0 (flip (Bytes.get b 0));
    ignore (Unix.lseek fd k Unix.SEEK_SET);
    ignore (Unix.write fd b 0 1);
    ignore (Unix.lseek fd t.on_disk Unix.SEEK_SET))

(* Bring the destination to [stream[0, len) ^ extra], cut at the
   crash point, with the armed flips applied.  Faults only accumulate,
   so the crash point only moves down and bytes past it never return:
   whatever the destination lacks lies after the last flush, in
   [pending].  With no faults armed this is one append of the new
   bytes. *)
let settle t ~len ~extra =
  let cap =
    List.fold_left
      (fun c f -> match f with Crash_after_bytes n -> min c (max 0 n) | _ -> c)
      max_int t.faults
  in
  let target = min cap (len + String.length extra) in
  (* A byte flipped an odd number of times ends up complemented. *)
  let flips =
    List.fold_left
      (fun acc f ->
        match f with
        | Flip_byte k when k >= 0 && k < target ->
          if List.mem k acc then List.filter (( <> ) k) acc else k :: acc
        | _ -> acc)
      [] t.faults
  in
  let keep = min t.on_disk (min len target) in
  if keep < t.on_disk then cut t keep;
  List.iter
    (fun k -> if k < keep && List.mem k flips <> List.mem k t.flipped then toggle t k)
    (List.sort_uniq compare (flips @ t.flipped));
  if target > keep then begin
    assert (keep >= t.flushed);
    let chunk = Bytes.create (target - keep) in
    let from_stream = max 0 (min len target - keep) in
    Buffer.blit t.pending (keep - t.flushed) chunk 0 from_stream;
    Bytes.blit_string extra 0 chunk from_stream (target - keep - from_stream);
    List.iter
      (fun k ->
        if k >= keep then
          Bytes.set chunk (k - keep) (Char.chr (Char.code (Bytes.get chunk (k - keep)) lxor 0xFF)))
      flips;
    append t chunk
  end;
  t.flipped <- flips

let write t s =
  fail_closed t "write";
  t.final_write <- t.written;
  t.written <- t.written + String.length s;
  Buffer.add_string t.pending s

let flush t =
  fail_closed t "flush";
  settle t ~len:t.written ~extra:"";
  t.flushed <- t.written;
  Buffer.clear t.pending

(* --- the sync half: touches only the file descriptor --- *)

type synced = File of string | Dir of string
type syncer = (string * Unix.file_descr) option

let syncer t = match t.dest with To_file { path; fd } -> Some (path, fd) | To_buffer _ -> None

let sync_hook : (synced -> unit) option ref = ref None
let set_sync_hook f = sync_hook := f

(* Every fsync(2) this module makes goes through here, so the hook sees
   each syscall once, on whichever thread issued it. *)
let fsync fd what =
  Unix.fsync fd;
  match !sync_hook with None -> () | Some h -> h what

let sync = Option.iter (fun (path, fd) -> fsync fd (File path))

let sync_dir path =
  let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> fsync fd (Dir path))

(* Observers (e.g. the flight recorder) register here to learn that an
   armed fault was actually applied.  A plain hook keeps the dependency
   arrow pointing the right way: util knows nothing about obs. *)
let fault_hook : (fault -> unit) option ref = ref None

let set_fault_hook f = fault_hook := f

let close t =
  if not t.closed then begin
    let torn =
      List.fold_left (fun k f -> match f with Torn_final_write n -> Some n | _ -> k) None t.faults
    in
    (* A torn final write ends at its start plus the bytes it kept; the
       duplicated flush replays what was written since the last flush. *)
    let len =
      match torn with
      | Some keep when t.final_write >= 0 ->
        t.final_write + min (max 0 keep) (t.written - t.final_write)
      | _ -> t.written
    in
    let extra =
      if List.mem Duplicate_flush t.faults && len > t.flushed then
        Buffer.sub t.pending 0 (len - t.flushed)
      else ""
    in
    settle t ~len ~extra;
    (match t.dest with To_buffer _ -> () | To_file { fd; _ } -> Unix.close fd);
    Buffer.reset t.pending;
    t.closed <- true;
    match !fault_hook with None -> () | Some h -> List.iter h t.faults
  end

let bytes_written t = t.written

let contents t =
  match t.dest with
  | To_buffer buf -> Buffer.contents buf
  | To_file { path; _ } ->
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))

let parse_fault spec =
  let at prefix =
    let lp = String.length prefix in
    if String.length spec > lp && String.sub spec 0 lp = prefix then
      int_of_string_opt (String.sub spec lp (String.length spec - lp))
    else None
  in
  match spec with
  | "dup-flush" -> Some Duplicate_flush
  | _ -> begin
    match (at "crash@", at "tear@", at "flip@") with
    | Some n, _, _ -> Some (Crash_after_bytes n)
    | _, Some n, _ -> Some (Torn_final_write n)
    | _, _, Some n -> Some (Flip_byte n)
    | None, None, None -> None
  end

let fault_to_string = function
  | Crash_after_bytes n -> Printf.sprintf "crash@%d" n
  | Torn_final_write n -> Printf.sprintf "tear@%d" n
  | Flip_byte n -> Printf.sprintf "flip@%d" n
  | Duplicate_flush -> "dup-flush"
