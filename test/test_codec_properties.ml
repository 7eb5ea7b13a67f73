(* Property sweep over the binary codecs: ~10k randomized cases per
   property, driven by Test_seed (override with PROV_TEST_SEED), for
   varints, strings, values, rows and checksummed frames.  Each property
   is decode-after-encode identity plus exact size accounting. *)

module V = Provkit_util.Varint
module C = Relstore.Codec
module F = Provkit_util.Frame
module Value = Relstore.Value
module Prng = Provkit_util.Prng

let cases = 10_000

(* Magnitude-stratified non-negative int: small counts are as important
   to cover as 63-bit extremes. *)
let gen_unsigned rng =
  match Prng.int rng 6 with
  | 0 -> Prng.int rng 2
  | 1 -> Prng.int rng 128 (* one byte *)
  | 2 -> 128 + Prng.int rng 16256 (* two bytes *)
  | 3 -> Prng.int rng 1_000_000
  | 4 -> max_int - Prng.int rng 1000
  | _ -> Int64.to_int (Int64.shift_right_logical (Prng.bits64 rng) 1)

let gen_signed rng =
  let m = gen_unsigned rng in
  match Prng.int rng 3 with
  | 0 -> m
  | 1 -> -m
  | _ -> if Prng.bool rng then min_int + Prng.int rng 1000 else Prng.int rng 100 - 50

let gen_string rng =
  let len =
    match Prng.int rng 4 with 0 -> 0 | 1 -> Prng.int rng 8 | _ -> Prng.int rng 120
  in
  String.init len (fun _ -> Char.chr (Prng.int rng 256))

(* Finite floats only: NaN would break structural equality, and the
   codec stores IEEE bits verbatim anyway. *)
let gen_float rng =
  match Prng.int rng 4 with
  | 0 -> float_of_int (gen_signed rng)
  | 1 -> Prng.float rng 1.0
  | 2 -> Prng.gaussian rng ~mean:0.0 ~stddev:1e9
  | _ -> if Prng.bool rng then infinity else neg_infinity

let gen_value rng =
  match Prng.int rng 6 with
  | 0 -> Value.Null
  | 1 -> Value.Int (gen_signed rng)
  | 2 -> Value.Real (gen_float rng)
  | 3 -> Value.Text (gen_string rng)
  | 4 -> Value.Blob (Bytes.of_string (gen_string rng))
  | _ -> Value.Bool (Prng.bool rng)

let gen_row rng = Array.init (Prng.int rng 9) (fun _ -> gen_value rng)

let buf = Buffer.create 256

let encode_with writer x =
  Buffer.clear buf;
  writer buf x;
  Buffer.contents buf

let test_varint_unsigned () =
  let rng = Test_seed.prng ~salt:20 in
  for _ = 1 to cases do
    let n = gen_unsigned rng in
    let s = encode_with V.write_unsigned n in
    Alcotest.(check int) "size_unsigned is exact" (String.length s) (V.size_unsigned n);
    let pos = ref 0 in
    Alcotest.(check int) "unsigned round trip" n (V.read_unsigned s pos);
    Alcotest.(check int) "fully consumed" (String.length s) !pos
  done

let test_varint_signed () =
  let rng = Test_seed.prng ~salt:21 in
  List.iter
    (fun n ->
      let s = encode_with V.write_signed n in
      Alcotest.(check int) "edge signed round trip" n (V.read_signed s (ref 0)))
    [ min_int; max_int; 0; -1; 1; min_int + 1; max_int - 1 ];
  for _ = 1 to cases do
    let n = gen_signed rng in
    let s = encode_with V.write_signed n in
    Alcotest.(check int) "size_signed is exact" (String.length s) (V.size_signed n);
    Alcotest.(check int) "signed round trip" n (V.read_signed s (ref 0));
    Alcotest.(check int) "zigzag inverse" n (V.unzigzag (V.zigzag n))
  done

let test_string_roundtrip () =
  let rng = Test_seed.prng ~salt:22 in
  for _ = 1 to cases do
    let s = gen_string rng in
    let enc = encode_with C.write_string s in
    let pos = ref 0 in
    Alcotest.(check string) "string round trip" s (C.read_string enc pos);
    Alcotest.(check int) "fully consumed" (String.length enc) !pos
  done

let test_value_roundtrip () =
  let rng = Test_seed.prng ~salt:23 in
  for _ = 1 to cases do
    let v = gen_value rng in
    let enc = encode_with C.write_value v in
    let pos = ref 0 in
    let v' = C.read_value enc pos in
    if not (v = v') then
      Alcotest.failf "value did not round trip: %s" (Format.asprintf "%a" Value.pp v);
    Alcotest.(check int) "fully consumed" (String.length enc) !pos
  done

let test_row_roundtrip_and_size () =
  let rng = Test_seed.prng ~salt:24 in
  for _ = 1 to cases do
    let row = gen_row rng in
    let enc = encode_with C.write_row row in
    Alcotest.(check int) "row_size is exact" (String.length enc) (C.row_size row);
    let pos = ref 0 in
    let row' = C.read_row enc pos in
    if not (row = row') then Alcotest.failf "row of arity %d did not round trip" (Array.length row);
    Alcotest.(check int) "fully consumed" (String.length enc) !pos
  done

(* Both length encodings: the varint one of the journals and WAL, and
   the 4-byte one of the telemetry journal. *)
let lengths = Provkit_util.Frame.[ Varint; U32_le ]

let test_frame_roundtrip_and_size () =
  let rng = Test_seed.prng ~salt:25 in
  for i = 1 to cases do
    let length = List.nth lengths (i mod 2) in
    let payload = gen_string rng in
    let enc = encode_with (F.write length) payload in
    Alcotest.(check int) "frame size is exact" (String.length enc)
      (F.size length (String.length payload));
    let pos = ref 0 in
    Alcotest.(check string) "frame round trip" payload (F.read length enc pos);
    Alcotest.(check int) "fully consumed" (String.length enc) !pos
  done

let test_frames_concatenate () =
  (* Back-to-back frames on one wire: each read lands exactly on the
     next frame boundary. *)
  let rng = Test_seed.prng ~salt:26 in
  for i = 1 to 500 do
    let length = List.nth lengths (i mod 2) in
    let payloads = List.init (1 + Prng.int rng 8) (fun _ -> gen_string rng) in
    Buffer.clear buf;
    List.iter (F.write length buf) payloads;
    let wire = Buffer.contents buf in
    let pos = ref 0 in
    List.iter
      (fun expected -> Alcotest.(check string) "stream element" expected (F.read length wire pos))
      payloads;
    Alcotest.(check int) "stream fully consumed" (String.length wire) !pos
  done

let test_overlong_varint_rejected () =
  (* 10 continuation bytes would decode to a phantom value; the reader
     must bound the shift instead. *)
  let overlong = String.make 10 '\xff' ^ "\x00" in
  Alcotest.(check bool) "overlong encoding rejected" true
    (try
       ignore (V.read_unsigned overlong (ref 0));
       false
     with Relstore.Errors.Corrupt _ -> true)

let suite =
  [
    Alcotest.test_case "varint unsigned (10k cases)" `Quick test_varint_unsigned;
    Alcotest.test_case "varint signed (10k cases)" `Quick test_varint_signed;
    Alcotest.test_case "strings (10k cases)" `Quick test_string_roundtrip;
    Alcotest.test_case "values (10k cases)" `Quick test_value_roundtrip;
    Alcotest.test_case "rows + row_size (10k cases)" `Quick test_row_roundtrip_and_size;
    Alcotest.test_case "frames + frame_size (10k cases)" `Quick test_frame_roundtrip_and_size;
    Alcotest.test_case "frame streams" `Quick test_frames_concatenate;
    Alcotest.test_case "overlong varint" `Quick test_overlong_varint_rejected;
  ]
