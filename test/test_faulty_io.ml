(* The fault-injecting sink: each fault shapes the byte image exactly as
   documented, honest sinks are transparent, and the command-line fault
   specs round trip. *)

module F = Provkit_util.Faulty_io

let buffer_sink ?faults () =
  let buf = Buffer.create 64 in
  (F.to_buffer ?faults buf, buf)

let test_honest_sink () =
  let sink, buf = buffer_sink () in
  F.write sink "hello ";
  F.write sink "world";
  Alcotest.(check int) "bytes_written counts offered bytes" 11 (F.bytes_written sink);
  Alcotest.(check string) "nothing persisted before flush" "" (Buffer.contents buf);
  F.flush sink;
  Alcotest.(check string) "flush persists" "hello world" (Buffer.contents buf);
  F.write sink "!";
  F.close sink;
  Alcotest.(check string) "close persists the rest" "hello world!" (Buffer.contents buf);
  Alcotest.(check string) "contents matches" "hello world!" (F.contents sink);
  F.close sink (* idempotent *)

let test_crash_after_bytes () =
  let sink, buf = buffer_sink ~faults:[ F.Crash_after_bytes 7 ] () in
  F.write sink "hello ";
  F.write sink "world";
  F.close sink;
  Alcotest.(check string) "bytes past the crash point are lost" "hello w" (Buffer.contents buf);
  Alcotest.(check int) "bytes_written still counts offered bytes" 11 (F.bytes_written sink)

let test_torn_final_write () =
  let sink, buf = buffer_sink ~faults:[ F.Torn_final_write 2 ] () in
  F.write sink "aaaa";
  F.flush sink;
  Alcotest.(check string) "mid-stream flush is honest" "aaaa" (Buffer.contents buf);
  F.write sink "bbbb";
  F.close sink;
  Alcotest.(check string) "final write torn to 2 bytes" "aaaabb" (Buffer.contents buf)

let test_flip_byte () =
  let sink, buf = buffer_sink ~faults:[ F.Flip_byte 1 ] () in
  F.write sink "abc";
  F.close sink;
  let got = Buffer.contents buf in
  Alcotest.(check int) "length unchanged" 3 (String.length got);
  Alcotest.(check char) "first byte intact" 'a' got.[0];
  Alcotest.(check int) "byte 1 complemented" (Char.code 'b' lxor 0xFF) (Char.code got.[1]);
  Alcotest.(check char) "last byte intact" 'c' got.[2]

let test_flip_out_of_range () =
  let sink, buf = buffer_sink ~faults:[ F.Flip_byte 99 ] () in
  F.write sink "abc";
  F.close sink;
  Alcotest.(check string) "out-of-range flip is a no-op" "abc" (Buffer.contents buf)

let test_duplicate_flush () =
  let sink, buf = buffer_sink ~faults:[ F.Duplicate_flush ] () in
  F.write sink "syncd.";
  F.flush sink;
  F.write sink "tail";
  F.close sink;
  Alcotest.(check string) "unsynced tail replayed once more" "syncd.tailtail"
    (Buffer.contents buf)

let test_arm_after_writing () =
  let sink, buf = buffer_sink () in
  F.write sink "abcdef";
  F.arm sink [ F.Crash_after_bytes 3 ];
  F.close sink;
  Alcotest.(check string) "armed fault applies at close" "abc" (Buffer.contents buf)

let test_to_file () =
  let path = Filename.temp_file "faulty_io" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = F.to_file ~faults:[ F.Torn_final_write 1 ] path in
      F.write sink "xy";
      F.close sink;
      let ic = open_in_bin path in
      let got =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check string) "file holds the faulted image" "x" got)

let test_write_after_close_rejected () =
  let sink, _ = buffer_sink () in
  F.close sink;
  Alcotest.(check bool) "write after close rejected" true
    (try
       F.write sink "x";
       false
     with Invalid_argument _ -> true)

let test_parse_fault () =
  let roundtrip f = F.parse_fault (F.fault_to_string f) = Some f in
  Alcotest.(check bool) "crash@N round trips" true (roundtrip (F.Crash_after_bytes 12));
  Alcotest.(check bool) "tear@N round trips" true (roundtrip (F.Torn_final_write 3));
  Alcotest.(check bool) "flip@N round trips" true (roundtrip (F.Flip_byte 7));
  Alcotest.(check bool) "dup-flush round trips" true (roundtrip F.Duplicate_flush);
  Alcotest.(check bool) "garbage rejected" true (F.parse_fault "explode@9" = None);
  Alcotest.(check bool) "missing count rejected" true (F.parse_fault "crash@" = None)

(* The sink against the whole-history reference fold: random write /
   flush / arm sequences (every fault kind, armed up front or late,
   repeated), on both destinations.  After every flush and at close the
   destination must hold exactly the model's image. *)
module Model = Faulty_io_model
module Prng = Provkit_util.Prng

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let random_fault rng ~written ~flips =
  match Prng.int rng 7 with
  | 0 -> F.Crash_after_bytes (Prng.int rng (written + 16))
  | 1 | 2 -> F.Torn_final_write (Prng.int rng 12)
  | 3 when flips <> [] -> F.Flip_byte (Prng.pick_list rng flips)
  | 3 | 4 | 5 -> F.Flip_byte (Prng.int rng (written + 8))
  | _ -> F.Duplicate_flush

let run_model_case rng ~to_file case =
  let path = Filename.temp_file "faulty_io_model" ".bin" in
  let buf = Buffer.create 64 in
  let flips = ref [] in
  let arm_one sink model ~written =
    let f = random_fault rng ~written ~flips:!flips in
    (match f with F.Flip_byte k -> flips := k :: !flips | _ -> ());
    Option.iter (fun s -> F.arm s [ f ]) sink;
    Model.arm model [ f ]
  in
  let model = Model.create () in
  if Prng.int rng 3 = 0 then arm_one None model ~written:0;
  let sink =
    if to_file then F.to_file ~faults:model.Model.faults path
    else F.to_buffer ~faults:model.Model.faults buf
  in
  let check what ~closing =
    let got = if to_file then read_file path else Buffer.contents buf in
    Alcotest.(check string)
      (Printf.sprintf "case %d (%s): %s" case (if to_file then "file" else "buffer") what)
      (Model.image ~closing model) got
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      for step = 1 to 1 + Prng.int rng 40 do
        match Prng.int rng 20 with
        | r when r < 11 ->
          let s = String.init (Prng.int rng 25) (fun _ -> Char.chr (Prng.int rng 256)) in
          F.write sink s;
          Model.write model s
        | r when r < 17 ->
          F.flush sink;
          Model.flush model;
          check (Printf.sprintf "flush at step %d" step) ~closing:false
        | _ -> arm_one (Some sink) model ~written:(F.bytes_written sink)
      done;
      F.close sink;
      check "close" ~closing:true)

let test_matches_reference_model () =
  let rng = Test_seed.prng ~salt:27 in
  for case = 1 to 300 do
    run_model_case rng ~to_file:false case;
    run_model_case rng ~to_file:true case
  done

let suite =
  [
    Alcotest.test_case "honest sink" `Quick test_honest_sink;
    Alcotest.test_case "crash after bytes" `Quick test_crash_after_bytes;
    Alcotest.test_case "torn final write" `Quick test_torn_final_write;
    Alcotest.test_case "flip byte" `Quick test_flip_byte;
    Alcotest.test_case "flip out of range" `Quick test_flip_out_of_range;
    Alcotest.test_case "duplicate flush" `Quick test_duplicate_flush;
    Alcotest.test_case "arm after writing" `Quick test_arm_after_writing;
    Alcotest.test_case "file destination" `Quick test_to_file;
    Alcotest.test_case "write after close" `Quick test_write_after_close_rejected;
    Alcotest.test_case "parse/print fault specs" `Quick test_parse_fault;
    Alcotest.test_case "matches the reference model" `Quick test_matches_reference_model;
  ]
