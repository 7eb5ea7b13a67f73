exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag u = (u lsr 1) lxor (-(u land 1))

(* The "unsigned" codec operates on the int's 63-bit pattern ([lsr] is a
   logical shift), so zigzagged extremes like [min_int] — whose zigzag
   image has the top bit set — encode and decode losslessly. *)
let size_unsigned n =
  let rec go n acc = if n lsr 7 = 0 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let size_signed n = size_unsigned (zigzag n)

(* Recursing on [write_unsigned] itself, not a local closure over
   [buf], keeps a write allocation-free. *)
let rec write_unsigned buf n =
  if n lsr 7 = 0 then Buffer.add_char buf (Char.chr (n land 127))
  else begin
    Buffer.add_char buf (Char.chr (128 lor (n land 127)));
    write_unsigned buf (n lsr 7)
  end

let write_signed buf n = write_unsigned buf (zigzag n)

let read_unsigned s pos =
  let len = String.length s in
  let rec go shift acc =
    if !pos >= len then corrupt "varint: truncated at %d" !pos
    else if shift > 56 then
      (* A valid encoding covers the 63-bit pattern in at most 9 groups;
         a longer run of continuation bits is corruption, not data. *)
      corrupt "varint: overlong encoding at %d" !pos
    else begin
      let b = Char.code s.[!pos] in
      incr pos;
      let acc = acc lor ((b land 127) lsl shift) in
      if b < 128 then acc else go (shift + 7) acc
    end
  in
  go 0 0

let read_signed s pos = unzigzag (read_unsigned s pos)
