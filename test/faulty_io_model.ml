(* Reference model of Provkit_util.Faulty_io: the byte image a sink's
   destination must hold, folded from the whole write/flush history and
   the armed faults.  The sink itself keeps no history and repairs its
   destination incrementally; this fold is the specification it is
   checked against (test_faulty_io's property test). *)

module F = Provkit_util.Faulty_io

type t = {
  mutable faults : F.fault list;
  (* Write/flush calls in order (kept reversed). *)
  mutable ops : [ `Write of string | `Flush ] list;
}

let create ?(faults = []) () = { faults; ops = [] }
let arm t faults = t.faults <- t.faults @ faults
let write t s = t.ops <- `Write s :: t.ops
let flush t = t.ops <- `Flush :: t.ops

(* Close-time faults (torn final write, duplicated flush tail) only
   apply when [closing]; a mid-stream flush persists the honest prefix. *)
let image ?(closing = false) t =
  let ops = List.rev t.ops in
  let writes =
    if closing then begin
      match
        List.fold_left
          (fun k f -> match f with F.Torn_final_write n -> Some n | _ -> k)
          None t.faults
      with
      | None -> ops
      | Some keep ->
        (* Truncate the final write call to its first [keep] bytes; on
           the reversed op list the first `Write is the final one. *)
        let rec tear_rev = function
          | [] -> []
          | `Write s :: rest -> `Write (String.sub s 0 (min keep (String.length s))) :: rest
          | `Flush :: rest -> `Flush :: tear_rev rest
        in
        List.rev (tear_rev t.ops)
    end
    else ops
  in
  let buf = Buffer.create 1024 in
  let since_flush = Buffer.create 256 in
  List.iter
    (fun op ->
      match op with
      | `Write s ->
        Buffer.add_string buf s;
        Buffer.add_string since_flush s
      | `Flush -> Buffer.clear since_flush)
    writes;
  if closing && List.mem F.Duplicate_flush t.faults then Buffer.add_buffer buf since_flush;
  let s = Buffer.contents buf in
  let s =
    List.fold_left
      (fun s f ->
        match f with
        | F.Crash_after_bytes n when n < String.length s -> String.sub s 0 (max 0 n)
        | _ -> s)
      s t.faults
  in
  List.fold_left
    (fun s f ->
      match f with
      | F.Flip_byte k when k >= 0 && k < String.length s ->
        String.mapi (fun i c -> if i = k then Char.chr (Char.code c lxor 0xFF) else c) s
      | _ -> s)
    s t.faults
