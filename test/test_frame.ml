(* The shared frame walker and ring.  Every log in the tree recovers
   through Frame.walk, so the damage properties run here once, against
   both length encodings: any-byte truncation yields exactly the frames
   that fit, and any single-byte flip is reported. *)

module F = Provkit_util.Frame
module Ring = Provkit_util.Ring
module Prng = Provkit_util.Prng

let magic = "TESTLOG1"
let lengths = [ ("varint", F.Varint); ("u32", F.U32_le) ]

(* The payload is the record: the decoder takes the whole frame. *)
let whole s pos =
  let r = String.sub s !pos (String.length s - !pos) in
  pos := String.length s;
  r

let gen_payloads rng =
  List.init (1 + Prng.int rng 8) (fun _ ->
      String.init (Prng.int rng 40) (fun _ -> Char.chr (Prng.int rng 256)))

let image length payloads =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  List.iter (F.write length buf) payloads;
  Buffer.contents buf

(* The encoded size of one frame: what [F.write] appends. *)
let frame_size length p =
  let buf = Buffer.create 64 in
  F.write length buf p;
  Buffer.length buf

let take n l = List.filteri (fun i _ -> i < n) l

let test_truncation () =
  let rng = Test_seed.prng ~salt:40 in
  List.iter
    (fun (name, length) ->
      for _ = 1 to 60 do
        let payloads = gen_payloads rng in
        let img = image length payloads in
        (* ends.(i): where the clean prefix of i records ends *)
        let ends =
          Array.of_list
            (List.rev
               (List.fold_left
                  (fun acc p -> (List.hd acc + frame_size length p) :: acc)
                  [ String.length magic ] payloads))
        in
        for cut = 0 to String.length img do
          let p = F.walk ~magic ~frames:length whole (String.sub img 0 cut) in
          if cut < String.length magic then begin
            if p.F.records <> [] || p.F.clean || p.F.clean_bytes <> 0 then
              Alcotest.failf "%s: a torn magic (cut %d) must read as empty and not clean" name cut
          end
          else begin
            let k = ref 0 in
            while !k + 1 < Array.length ends && ends.(!k + 1) <= cut do
              incr k
            done;
            if p.F.records <> take !k payloads then
              Alcotest.failf "%s: cut %d kept %d records, expected %d" name cut
                (List.length p.F.records) !k;
            Alcotest.(check int) (name ^ ": clean bytes") ends.(!k) p.F.clean_bytes;
            Alcotest.(check bool) (name ^ ": clean iff on a boundary") (cut = ends.(!k)) p.F.clean
          end
        done
      done)
    lengths

let test_flip () =
  let rng = Test_seed.prng ~salt:41 in
  List.iter
    (fun (name, length) ->
      for _ = 1 to 30 do
        let payloads = gen_payloads rng in
        let img = image length payloads in
        for k = 0 to String.length img - 1 do
          let mask = 1 + Prng.int rng 255 in
          let damaged =
            String.mapi (fun i c -> if i = k then Char.chr (Char.code c lxor mask) else c) img
          in
          match F.walk ~magic ~frames:length whole damaged with
          | p ->
            if p.F.clean then Alcotest.failf "%s: flip at byte %d reported clean" name k;
            let n = List.length p.F.records in
            if n >= List.length payloads || p.F.records <> take n payloads then
              Alcotest.failf "%s: flip at byte %d kept a non-prefix" name k
          | exception Provkit_util.Varint.Corrupt _ ->
            if k >= String.length magic then
              Alcotest.failf "%s: flip at byte %d raised past the magic" name k
        done
      done)
    lengths

let test_decoder_failure_ends_prefix () =
  let payloads = [ "a"; "bad"; "c" ] in
  let decode s pos =
    let r = whole s pos in
    if r = "bad" then Provkit_util.Varint.corrupt "undecodable" else r
  in
  let img = image F.Varint payloads in
  let p = F.walk ~magic ~frames:F.Varint decode img in
  Alcotest.(check (list string)) "records before the bad one" [ "a" ] p.F.records;
  Alcotest.(check int) "clean bytes end at its frame"
    (String.length magic + frame_size F.Varint "a")
    p.F.clean_bytes;
  Alcotest.(check bool) "not clean" false p.F.clean;
  (* A frame the decoder does not consume is damage too. *)
  let p = F.walk ~magic ~frames:F.Varint (fun s pos -> s.[!pos]) (image F.Varint [ "xy" ]) in
  Alcotest.(check bool) "trailing bytes inside a frame" false p.F.clean;
  Alcotest.(check bool) "foreign image raises" true
    (match F.walk ~magic whole "OTHERLOG" with
    | _ -> false
    | exception Provkit_util.Varint.Corrupt _ -> true)

(* --- ring --- *)

let test_ring_fifo () =
  let r : (unit, int) Ring.t = Ring.create 3 in
  let evicted = List.map (Ring.push r) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list (option int))) "evictions" [ None; None; None; Some 1; Some 2 ] evicted;
  Alcotest.(check (list int)) "oldest first" [ 3; 4; 5 ] (Ring.to_list r);
  Alcotest.(check int) "shrink evicts" 2 (Ring.resize r 1);
  Alcotest.(check (list int)) "shrink keeps the newest" [ 5 ] (Ring.to_list r);
  Alcotest.(check int) "grow evicts nothing" 0 (Ring.resize r 4);
  Ring.clear r;
  Alcotest.(check int) "clear empties" 0 (List.length (Ring.to_list r));
  Alcotest.check_raises "zero capacity" (Invalid_argument "Ring: capacity must be positive")
    (fun () -> ignore (Ring.resize r 0))

(* A random push/touch/resize workload against a plain list model. *)
let test_ring_model () =
  let rng = Test_seed.prng ~salt:42 in
  let r = Ring.create ~key:(fun k -> if k mod 5 = 0 then None else Some k) 4 in
  let model = ref [] and cap = ref 4 in
  let trim () =
    let n = List.length !model - !cap in
    if n > 0 then model := List.filteri (fun i _ -> i >= n) !model
  in
  for step = 1 to 5_000 do
    (match Prng.int rng 10 with
    | 0 ->
      cap := 1 + Prng.int rng 6;
      ignore (Ring.resize r !cap);
      trim ()
    | 1 | 2 | 3 ->
      let k = Prng.int rng 30 in
      Ring.touch r k;
      if k mod 5 <> 0 && List.mem k !model then
        model := List.filter (( <> ) k) !model @ [ k ]
    | _ ->
      let k = Prng.int rng 30 in
      if Ring.find r k = None then begin
        ignore (Ring.push r k);
        model := !model @ [ k ];
        trim ()
      end);
    if Ring.to_list r <> !model then Alcotest.failf "ring diverged from the model at step %d" step;
    List.iter
      (fun k ->
        let indexed = k mod 5 <> 0 && List.mem k !model in
        if (Ring.find r k <> None) <> indexed then
          Alcotest.failf "key %d lookup wrong at step %d" k step)
      (List.init 30 Fun.id)
  done

let suite =
  [
    Alcotest.test_case "walker: any-byte truncation, both lengths" `Quick test_truncation;
    Alcotest.test_case "walker: single-byte flips, both lengths" `Quick test_flip;
    Alcotest.test_case "walker: undecodable record ends the prefix" `Quick
      test_decoder_failure_ends_prefix;
    Alcotest.test_case "ring: fifo, resize, clear" `Quick test_ring_fifo;
    Alcotest.test_case "ring: keyed touch against a model" `Quick test_ring_model;
  ]
