type t = {
  mutable stamp : int array;
  mutable depth : int array;
  mutable parent : int array;
  mutable mass : float array;
  mutable queue : int array;
  mutable seen : int array;
  mutable score : float array;
  mutable order : int array;
  mutable scored : int;
  mutable gen : int;
  mutable busy : bool;
}

(* Zero is never a generation: [next_gen] hands out 1, 2, ... *)
let make n =
  {
    stamp = Array.make n 0;
    depth = Array.make n 0;
    parent = Array.make n 0;
    mass = Array.make n 0.0;
    queue = Array.make n 0;
    seen = Array.make n 0;
    score = Array.make n 0.0;
    order = Array.make n 0;
    scored = 0;
    gen = 0;
    busy = false;
  }

let grow s n =
  let fresh = make n in
  s.stamp <- fresh.stamp;
  s.depth <- fresh.depth;
  s.parent <- fresh.parent;
  s.mass <- fresh.mass;
  s.queue <- fresh.queue;
  s.seen <- fresh.seen;
  s.score <- fresh.score;
  s.order <- fresh.order

let key = Domain.DLS.new_key (fun () -> make 0)

let with_scratch ~bound f =
  let s = Domain.DLS.get key in
  if s.busy then f (make bound)
  else begin
    let have = Array.length s.stamp in
    if have < bound then grow s (max bound (2 * have));
    s.busy <- true;
    match f s with
    | v ->
      s.busy <- false;
      v
    | exception e ->
      s.busy <- false;
      raise e
  end

let next_gen s =
  s.gen <- s.gen + 1;
  s.gen
