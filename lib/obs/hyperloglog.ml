(* HyperLogLog (Flajolet et al. 2007).  The first [p] bits of a 64-bit
   hash pick a register; the register keeps the maximum over items of
   (position of the first set bit in the remaining 64-p bits).  The
   harmonic mean of 2^register across all registers, scaled by the
   alpha_m bias constant, estimates cardinality; for small estimates
   the sketch degrades gracefully into linear counting over the
   zero-register count. *)

type t = {
  p : int;
  m : int; (* 2^p registers *)
  regs : Bytes.t;
}

let create ?(precision = 12) () =
  if precision < 4 || precision > 18 then
    invalid_arg "Hyperloglog.create: precision must be in [4, 18]";
  { p = precision; m = 1 lsl precision; regs = Bytes.make (1 lsl precision) '\000' }

let precision t = t.p
let registers t = t.m

(* FNV-1a 64-bit, then the splitmix64 finalizer: FNV alone has poor
   high-bit avalanche, and HLL reads both ends of the word (the top p
   bits index, the rest is rank material). *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let fnv_basis = 0xcbf29ce484222325L
let[@inline] fnv h c = Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L

(* Plain loops over a local ref let the compiler keep [h] unboxed; a
   closure capturing it would box a fresh int64 for every byte. *)
let hash_string s =
  let h = ref fnv_basis in
  for i = 0 to String.length s - 1 do
    h := fnv !h (String.unsafe_get s i)
  done;
  mix64 !h

let[@inline] hash_buffer b =
  let h = ref fnv_basis in
  for i = 0 to Buffer.length b - 1 do
    h := fnv !h (Buffer.nth b i)
  done;
  mix64 !h

(* Rank: 1 + number of leading zeros of the (64-p)-bit remainder,
   capped so it always fits the register byte. *)
let[@inline] rank_of t hash =
  let rest = Int64.shift_left hash t.p in
  if Int64.equal rest 0L then 64 - t.p + 1
  else begin
    let r = ref 1 in
    let v = ref rest in
    while Int64.equal (Int64.logand !v Int64.min_int) 0L do
      incr r;
      v := Int64.shift_left !v 1
    done;
    !r
  end

let[@inline] add_hash t hash =
  let idx = Int64.to_int (Int64.shift_right_logical hash (64 - t.p)) in
  let rank = rank_of t hash in
  if rank > Char.code (Bytes.get t.regs idx) then
    Bytes.set t.regs idx (Char.chr rank)

let add_string t s = add_hash t (hash_string s)
let add_buffer t b = add_hash t (hash_buffer b)

let alpha m =
  match m with
  | 16 -> 0.673
  | 32 -> 0.697
  | 64 -> 0.709
  | _ -> 0.7213 /. (1.0 +. (1.079 /. float_of_int m))

let estimate t =
  let m = float_of_int t.m in
  let sum = ref 0.0 and zeros = ref 0 in
  for i = 0 to t.m - 1 do
    let r = Char.code (Bytes.get t.regs i) in
    if r = 0 then incr zeros;
    sum := !sum +. (1.0 /. float_of_int (1 lsl r))
  done;
  let raw = alpha t.m *. m *. m /. !sum in
  (* Small-range correction: below 2.5m the raw estimator is biased;
     linear counting over the empty-register fraction is exact-ish
     there.  No large-range correction — 64-bit hashes don't saturate. *)
  if raw <= 2.5 *. m && !zeros > 0 then m *. log (m /. float_of_int !zeros) else raw

let error_bound t = 1.04 /. sqrt (float_of_int t.m)

let merge dst src =
  if dst.p <> src.p then invalid_arg "Hyperloglog.merge: precision mismatch";
  for i = 0 to dst.m - 1 do
    if Char.code (Bytes.get src.regs i) > Char.code (Bytes.get dst.regs i) then
      Bytes.set dst.regs i (Bytes.get src.regs i)
  done

let reset t = Bytes.fill t.regs 0 t.m '\000'

let serialized t =
  let buf = Buffer.create (t.m + 1) in
  Buffer.add_char buf (Char.chr t.p);
  Buffer.add_bytes buf t.regs;
  Buffer.contents buf
