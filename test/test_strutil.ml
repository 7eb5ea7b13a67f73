module S = Provkit_util.Strutil

let check_sl = Alcotest.check (Alcotest.list Alcotest.string)
let check_s = Alcotest.check Alcotest.string
let check_b = Alcotest.check Alcotest.bool

let test_prefix_suffix () =
  check_b "prefix yes" true (S.is_prefix ~prefix:"http" "http://x");
  check_b "prefix no" false (S.is_prefix ~prefix:"https" "http://x");
  check_b "empty prefix" true (S.is_prefix ~prefix:"" "anything");
  check_b "suffix yes" true (S.is_suffix ~suffix:".zip" "file.zip");
  check_b "suffix no" false (S.is_suffix ~suffix:".zip" "file.tar");
  check_b "prefix longer than string" false (S.is_prefix ~prefix:"abc" "ab")

let test_contains () =
  check_b "middle" true (S.contains_substring ~needle:"bc" "abcd");
  check_b "absent" false (S.contains_substring ~needle:"xyz" "abcd");
  check_b "empty needle" true (S.contains_substring ~needle:"" "abcd");
  check_b "full match" true (S.contains_substring ~needle:"abcd" "abcd");
  check_b "needle longer" false (S.contains_substring ~needle:"abcde" "abcd")

let test_truncate () =
  check_s "short unchanged" "abc" (S.truncate 10 "abc");
  check_s "exact unchanged" "abc" (S.truncate 3 "abc");
  check_s "ellipsis" "abcde..." (S.truncate 8 "abcdefghij");
  check_s "tiny limit" "ab" (S.truncate 2 "abcdefghij")

let test_pad () =
  check_s "right" "ab  " (S.pad_right 4 "ab");
  check_s "left" "  ab" (S.pad_left 4 "ab");
  check_s "no pad needed" "abcd" (S.pad_right 2 "abcd")

let test_repeat () =
  check_s "three" "ababab" (S.repeat 3 "ab");
  check_s "zero" "" (S.repeat 0 "x")

let suite =
  [
    Alcotest.test_case "prefix/suffix" `Quick test_prefix_suffix;
    Alcotest.test_case "contains_substring" `Quick test_contains;
    Alcotest.test_case "truncate" `Quick test_truncate;
    Alcotest.test_case "pad" `Quick test_pad;
    Alcotest.test_case "repeat" `Quick test_repeat;
  ]
