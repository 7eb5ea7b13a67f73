(* A bloom filter keyed by strings: O(1) "have I seen this URL before"
   for revisit detection, at the cost of a tunable false-positive rate
   and no deletion.  Sizing follows the standard optimum: for [n]
   expected insertions at target rate [p],
     m = ceil (-n ln p / (ln 2)^2)   bits
     k = round (m/n * ln 2)          hash functions
   and the k probe positions come from double hashing,
   h_i = h1 + i*h2 (mod m), which is as good as k independent hashes
   for bloom purposes (Kirsch & Mitzenmacher). *)

type t = {
  bits : Bytes.t;
  bit_size : int;
  hash_count : int;
  target_rate : float;
}

let ln2 = log 2.0

let create ?(false_positive_rate = 0.01) ~expected () =
  let n = max 1 expected in
  let p = min 0.5 (max 1e-9 false_positive_rate) in
  let m =
    max 64
      (int_of_float
         (ceil (-.float_of_int n *. log p /. (ln2 *. ln2))))
  in
  let k = max 1 (int_of_float (Float.round (float_of_int m /. float_of_int n *. ln2))) in
  {
    bits = Bytes.make ((m + 7) / 8) '\000';
    bit_size = m;
    hash_count = k;
    target_rate = p;
  }

(* Two seeded hashes drive the double-hashing probe sequence; [lor 1]
   keeps the stride odd so it never degenerates to a fixed point. *)
let probes t key =
  let h1 = Hashtbl.seeded_hash 0x9e37 key in
  let h2 = Hashtbl.seeded_hash 0x85eb key lor 1 in
  fun i -> abs (h1 + (i * h2)) mod t.bit_size

let set_bit t pos =
  let byte = pos lsr 3 and off = pos land 7 in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl off)))

let get_bit t pos =
  let byte = pos lsr 3 and off = pos land 7 in
  Char.code (Bytes.get t.bits byte) land (1 lsl off) <> 0

let add t key =
  let probe = probes t key in
  for i = 0 to t.hash_count - 1 do
    set_bit t (probe i)
  done

let mem t key =
  let probe = probes t key in
  let rec all i = i >= t.hash_count || (get_bit t (probe i) && all (i + 1)) in
  all 0

let remember t key =
  let seen = mem t key in
  add t key;
  seen

let false_positive_rate t = t.target_rate
