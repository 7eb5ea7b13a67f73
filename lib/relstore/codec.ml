(* Value tags.  Bool is encoded in the tag itself to save a byte. *)
let tag_null = 0
let tag_int = 1
let tag_real = 2
let tag_text = 3
let tag_blob = 4
let tag_false = 5
let tag_true = 6

(* A top-level helper, not a local closure over [buf]: writing a value
   allocates nothing. *)
let tag buf t = Buffer.add_char buf (Char.chr t)

let write_value buf v =
  match (v : Value.t) with
  | Null -> tag buf tag_null
  | Int n ->
    tag buf tag_int;
    Provkit_util.Varint.write_signed buf n
  | Real f ->
    tag buf tag_real;
    Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Text s ->
    tag buf tag_text;
    Provkit_util.Varint.write_unsigned buf (String.length s);
    Buffer.add_string buf s
  | Blob b ->
    tag buf tag_blob;
    Provkit_util.Varint.write_unsigned buf (Bytes.length b);
    Buffer.add_bytes buf b
  | Bool false -> tag buf tag_false
  | Bool true -> tag buf tag_true

let read_bytes s pos n =
  if n < 0 || !pos + n > String.length s then
    Errors.corrupt "codec: truncated payload at %d" !pos
  else begin
    let out = String.sub s !pos n in
    pos := !pos + n;
    out
  end

let read_value s pos : Value.t =
  if !pos >= String.length s then Errors.corrupt "codec: truncated tag at %d" !pos
  else begin
    let tag = Char.code s.[!pos] in
    incr pos;
    if tag = tag_null then Null
    else if tag = tag_int then Int (Provkit_util.Varint.read_signed s pos)
    else if tag = tag_real then begin
      let raw = read_bytes s pos 8 in
      Real (Int64.float_of_bits (String.get_int64_le raw 0))
    end
    else if tag = tag_text then begin
      let n = Provkit_util.Varint.read_unsigned s pos in
      Text (read_bytes s pos n)
    end
    else if tag = tag_blob then begin
      let n = Provkit_util.Varint.read_unsigned s pos in
      Blob (Bytes.of_string (read_bytes s pos n))
    end
    else if tag = tag_false then Bool false
    else if tag = tag_true then Bool true
    else Errors.corrupt "codec: unknown tag %d at %d" tag (!pos - 1)
  end

let write_string buf s =
  Provkit_util.Varint.write_unsigned buf (String.length s);
  Buffer.add_string buf s

let read_string s pos =
  let n = Provkit_util.Varint.read_unsigned s pos in
  read_bytes s pos n

(* An element count must be plausible before it sizes an allocation:
   every encoded element takes at least one byte, so a count beyond the
   remaining bytes (or negative, from a hostile varint) is corruption. *)
let read_count s pos =
  let n = Provkit_util.Varint.read_unsigned s pos in
  if n < 0 || n > String.length s - !pos then
    Errors.corrupt "codec: implausible count %d at %d" n !pos
  else n

let write_opt_int buf = function
  | None -> Buffer.add_char buf '\000'
  | Some n ->
    Buffer.add_char buf '\001';
    Provkit_util.Varint.write_signed buf n

let read_opt_int s pos =
  if !pos >= String.length s then Errors.corrupt "codec: truncated option at %d" !pos
  else begin
    incr pos;
    match s.[!pos - 1] with
    | '\000' -> None
    | '\001' -> Some (Provkit_util.Varint.read_signed s pos)
    | c -> Errors.corrupt "codec: bad option tag %d at %d" (Char.code c) (!pos - 1)
  end

let write_row buf row =
  Provkit_util.Varint.write_unsigned buf (Array.length row);
  Array.iter (write_value buf) row

let read_row s pos =
  let n = read_count s pos in
  Array.init n (fun _ -> read_value s pos)
