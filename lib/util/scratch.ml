type t = {
  mutable stamp : int array;
  mutable gen : int;
  mutable ids : int array;
  mutable count : int;
  mutable heap : int array;
  mutable floats : float array array;
  mutable ints : int array array;
}

(* Zero is never a generation: [clear] hands out 1, 2, ... *)
let make () = { stamp = [||]; gen = 0; ids = [||]; count = 0; heap = [||]; floats = [||]; ints = [||] }

(* The one growth policy. *)
let grown have need = max need (2 * have)

let clear s =
  s.gen <- s.gen + 1;
  s.count <- 0

let[@inline] mem s id = s.stamp.(id) = s.gen

let[@inline] add s id =
  s.stamp.(id) <- s.gen;
  s.ids.(s.count) <- id;
  s.count <- s.count + 1

(* A fresh stamp array holds no generation, so growing empties the set. *)
let reserve s bound =
  let have = Array.length s.stamp in
  if have < bound then begin
    let n = grown have bound in
    s.stamp <- Array.make n 0;
    s.ids <- Array.make n 0;
    s.heap <- Array.make n 0
  end

let nth_array arrays k ~filler ~set s =
  let arrays =
    if k < Array.length arrays then arrays
    else begin
      let more = Array.append arrays (Array.make (k + 1 - Array.length arrays) [||]) in
      set s more;
      more
    end
  in
  let a = arrays.(k) in
  if Array.length a >= Array.length s.stamp then a
  else begin
    let a = Array.make (Array.length s.stamp) filler in
    arrays.(k) <- a;
    a
  end

let floats s k = nth_array s.floats k ~filler:0.0 ~set:(fun s a -> s.floats <- a) s
let ints s k = nth_array s.ints k ~filler:0 ~set:(fun s a -> s.ints <- a) s

(* Scratches lent out are [free.(0 .. used - 1)]; they come back in the
   reverse order, since every loan ends before the one around it. *)
type pool = { mutable free : t array; mutable used : int }

let pool = Domain.DLS.new_key (fun () -> { free = [||]; used = 0 })

let with_ ~bound f =
  let p = Domain.DLS.get pool in
  if p.used = Array.length p.free then p.free <- Array.append p.free [| make () |];
  let s = p.free.(p.used) in
  p.used <- p.used + 1;
  reserve s bound;
  clear s;
  match f s with
  | v ->
    p.used <- p.used - 1;
    v
  | exception e ->
    p.used <- p.used - 1;
    raise e

(* A heap sort comparing ints inline: Array.sort calls a comparison
   closure per step, which costs more than the sort itself. *)
let sort s =
  let a = s.ids in
  let rec down i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        let x = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- x;
        down c len
      end
    end
  in
  for i = (s.count / 2) - 1 downto 0 do
    down i s.count
  done;
  for len = s.count - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(len);
    a.(len) <- x;
    down 0 len
  done

(* A binary heap in [heap] keeps the best [k] members so far with the
   one that ranks last at its root; popping the root into the slot the
   heap just gave up leaves them best first. *)
let top s value k =
  let h = s.heap and n = ref 0 in
  let after a b =
    let c = Float.compare value.(a) value.(b) in
    c < 0 || (c = 0 && a > b)
  in
  let swap i j =
    let x = h.(i) in
    h.(i) <- h.(j);
    h.(j) <- x
  in
  let rec sift_up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if after h.(i) h.(parent) then begin
        swap i parent;
        sift_up parent
      end
    end
  in
  let rec sift_down i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && after h.(l + 1) h.(l) then l + 1 else l in
      if after h.(c) h.(i) then begin
        swap i c;
        sift_down c len
      end
    end
  in
  for j = 0 to s.count - 1 do
    let id = s.ids.(j) in
    if !n < k then begin
      h.(!n) <- id;
      incr n;
      sift_up (!n - 1)
    end
    else if !n > 0 && after h.(0) id then begin
      h.(0) <- id;
      sift_down 0 !n
    end
  done;
  for len = !n - 1 downto 1 do
    swap 0 len;
    sift_down 0 len
  done;
  !n
