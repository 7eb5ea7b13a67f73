(* Checksummed frames and the one clean-prefix walker.  A frame is
   [length][CRC-32 LE][payload]; the length is a varint in every format
   but the telemetry journal, whose PTJ1 layout fixed a 4-byte LE one. *)

type length = Varint | U32_le

let write_length length buf n =
  match length with
  | Varint -> Varint.write_unsigned buf n
  | U32_le -> Buffer.add_int32_le buf (Int32.of_int n)

let read_length length s pos =
  match length with
  | Varint -> Varint.read_unsigned s pos
  | U32_le ->
    if String.length s - !pos < 4 then Varint.corrupt "frame: truncated length at %d" !pos;
    let n = Int32.to_int (String.get_int32_le s !pos) land 0xFFFF_FFFF in
    pos := !pos + 4;
    n

let write length buf payload =
  write_length length buf (String.length payload);
  Buffer.add_string buf (Crc32.to_le_bytes (Crc32.digest payload));
  Buffer.add_string buf payload

let read length s pos =
  let n = read_length length s pos in
  (* A hostile varint can decode negative; either way the length must
     fit in what remains before it sizes anything. *)
  if n < 0 || String.length s - !pos < 4 + n then Varint.corrupt "frame: truncated at %d" !pos;
  let payload_pos = !pos + 4 in
  if Crc32.digest ~pos:payload_pos ~len:n s <> Crc32.of_le_bytes s !pos then
    Varint.corrupt "frame: checksum mismatch at %d" payload_pos;
  pos := payload_pos + n;
  String.sub s payload_pos n

let size length n =
  (match length with Varint -> Varint.size_unsigned n | U32_le -> 4) + 4 + n

type 'a prefix = { records : 'a list; clean_bytes : int; clean : bool }

let walk ~magic ?frames decode s =
  let len = String.length s in
  if len < String.length magic && String.starts_with ~prefix:s magic then
    { records = []; clean_bytes = 0; clean = false }
  else if not (String.starts_with ~prefix:magic s) then
    Varint.corrupt "frame: bad magic (expected %S)" magic
  else begin
    let record =
      match frames with
      | None -> decode
      | Some length ->
        fun s pos ->
          let payload = read length s pos in
          let p = ref 0 in
          let r = decode payload p in
          if !p <> String.length payload then
            Varint.corrupt "frame: %d trailing bytes inside frame" (String.length payload - !p);
          r
    in
    let pos = ref (String.length magic) and records = ref [] and clean = ref true in
    while !clean && !pos < len do
      (* A damaged record decodes partially: rewind to its start so the
         clean prefix ends on a record boundary. *)
      let start = !pos in
      match record s pos with
      | r -> records := r :: !records
      | exception Varint.Corrupt _ ->
        pos := start;
        clean := false
    done;
    { records = List.rev !records; clean_bytes = !pos; clean = !clean }
  end
