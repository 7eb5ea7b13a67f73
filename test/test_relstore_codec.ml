(* Varint, Value and Codec: encode/decode round trips, exact size
   accounting, and the total order on values. *)

module R = Relstore

let value_gen : R.Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      (1, return R.Value.Null);
      (4, map (fun n -> R.Value.Int n) int);
      (3, map (fun f -> R.Value.Real f) (float_bound_inclusive 1e12));
      (4, map (fun s -> R.Value.Text s) (string_size (int_bound 40)));
      (2, map (fun s -> R.Value.Blob (Bytes.of_string s)) (string_size (int_bound 24)));
      (2, map (fun b -> R.Value.Bool b) bool);
    ]

let value_arb = QCheck.make ~print:R.Value.to_string value_gen

let varint_roundtrip =
  QCheck.Test.make ~name:"varint signed roundtrip" ~count:2000 (QCheck.make QCheck.Gen.int)
    (fun n ->
      let buf = Buffer.create 10 in
      Provkit_util.Varint.write_signed buf n;
      let s = Buffer.contents buf in
      let pos = ref 0 in
      let decoded = Provkit_util.Varint.read_signed s pos in
      decoded = n && !pos = String.length s && String.length s = Provkit_util.Varint.size_signed n)

let varint_unsigned_roundtrip =
  QCheck.Test.make ~name:"varint unsigned roundtrip" ~count:2000
    (QCheck.make QCheck.Gen.nat) (fun n ->
      let buf = Buffer.create 10 in
      Provkit_util.Varint.write_unsigned buf n;
      let s = Buffer.contents buf in
      let pos = ref 0 in
      Provkit_util.Varint.read_unsigned s pos = n && String.length s = Provkit_util.Varint.size_unsigned n)

let zigzag_inverse =
  QCheck.Test.make ~name:"zigzag/unzigzag inverse" ~count:2000 (QCheck.make QCheck.Gen.int)
    (fun n -> Provkit_util.Varint.unzigzag (Provkit_util.Varint.zigzag n) = n)

let value_roundtrip =
  QCheck.Test.make ~name:"value codec roundtrip" ~count:2000 value_arb (fun v ->
      let buf = Buffer.create 32 in
      R.Codec.write_value buf v;
      let s = Buffer.contents buf in
      let pos = ref 0 in
      let decoded = R.Codec.read_value s pos in
      R.Value.equal decoded v
      && !pos = String.length s
      && String.length s = R.Value.serialized_size v)

let row_roundtrip =
  QCheck.Test.make ~name:"row codec roundtrip" ~count:500
    (QCheck.make (QCheck.Gen.array_size (QCheck.Gen.int_bound 8) value_gen)) (fun row ->
      let buf = Buffer.create 64 in
      R.Codec.write_row buf row;
      let s = Buffer.contents buf in
      let pos = ref 0 in
      let decoded = R.Codec.read_row s pos in
      Array.length decoded = Array.length row
      && Array.for_all2 R.Value.equal decoded row
      && !pos = String.length s)

let compare_total_order =
  QCheck.Test.make ~name:"value compare is a total order" ~count:1000
    (QCheck.triple value_arb value_arb value_arb) (fun (a, b, c) ->
      let sgn x = compare x 0 in
      (* antisymmetry *)
      sgn (R.Value.compare a b) = -sgn (R.Value.compare b a)
      && (* transitivity of <= *)
      (not (R.Value.compare a b <= 0 && R.Value.compare b c <= 0)
      || R.Value.compare a c <= 0))

let test_numeric_interleave () =
  Alcotest.(check bool) "Int vs Real numeric" true (R.Value.compare (R.Value.Int 2) (R.Value.Real 2.5) < 0);
  Alcotest.(check bool) "Real vs Int numeric" true (R.Value.compare (R.Value.Real 3.5) (R.Value.Int 3) > 0);
  Alcotest.(check bool) "equal across kinds" true (R.Value.equal (R.Value.Int 2) (R.Value.Real 2.0))

let test_null_smallest () =
  List.iter
    (fun v ->
      Alcotest.(check bool) "null below" true (R.Value.compare R.Value.Null v < 0))
    [ R.Value.Bool false; R.Value.Int min_int; R.Value.Text ""; R.Value.Blob Bytes.empty ]

let test_projections () =
  Alcotest.(check int) "to_int" 5 (R.Value.to_int (R.Value.Int 5));
  Alcotest.(check (float 0.0)) "to_real widens" 5.0 (R.Value.to_real (R.Value.Int 5));
  Alcotest.(check string) "to_text" "x" (R.Value.to_text (R.Value.Text "x"));
  Alcotest.(check bool) "to_bool" true (R.Value.to_bool (R.Value.Bool true));
  Alcotest.(check (option int)) "to_int_opt null" None (R.Value.to_int_opt R.Value.Null);
  Alcotest.(check (option string)) "to_text_opt" (Some "y") (R.Value.to_text_opt (R.Value.Text "y"))

let test_projection_errors () =
  (try
     ignore (R.Value.to_int (R.Value.Text "no"));
     Alcotest.fail "expected Type_mismatch"
   with R.Errors.Type_mismatch _ -> ());
  try
    ignore (R.Value.to_text R.Value.Null);
    Alcotest.fail "expected Type_mismatch on null"
  with R.Errors.Type_mismatch _ -> ()

let test_corrupt_decode () =
  let pos = ref 0 in
  (try
     ignore (R.Codec.read_value "\255garbage" pos);
     Alcotest.fail "expected Corrupt"
   with R.Errors.Corrupt _ -> ());
  let pos = ref 0 in
  try
    ignore (R.Codec.read_value "" pos);
    Alcotest.fail "expected Corrupt on empty"
  with R.Errors.Corrupt _ -> ()

let test_string_roundtrip () =
  let buf = Buffer.create 16 in
  R.Codec.write_string buf "hello";
  R.Codec.write_string buf "";
  let s = Buffer.contents buf in
  let pos = ref 0 in
  Alcotest.(check string) "first" "hello" (R.Codec.read_string s pos);
  Alcotest.(check string) "second empty" "" (R.Codec.read_string s pos)

let suite =
  [
    QCheck_alcotest.to_alcotest varint_roundtrip;
    QCheck_alcotest.to_alcotest varint_unsigned_roundtrip;
    QCheck_alcotest.to_alcotest zigzag_inverse;
    QCheck_alcotest.to_alcotest value_roundtrip;
    QCheck_alcotest.to_alcotest row_roundtrip;
    QCheck_alcotest.to_alcotest compare_total_order;
    Alcotest.test_case "numeric interleave" `Quick test_numeric_interleave;
    Alcotest.test_case "null smallest" `Quick test_null_smallest;
    Alcotest.test_case "projections" `Quick test_projections;
    Alcotest.test_case "projection errors" `Quick test_projection_errors;
    Alcotest.test_case "corrupt decode" `Quick test_corrupt_decode;
    Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
  ]
