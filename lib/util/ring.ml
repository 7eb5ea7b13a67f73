(* A doubly linked list from oldest to newest, with an optional index
   from key to node: push, evict, find, touch and remove are O(1). *)

type 'a node = { v : 'a; mutable older : 'a node option; mutable newer : 'a node option }

type ('k, 'a) t = {
  key : 'a -> 'k option;
  index : ('k, 'a node) Hashtbl.t;
  mutable oldest : 'a node option;
  mutable newest : 'a node option;
  mutable length : int;
  mutable capacity : int;
}

let check n = if n < 1 then invalid_arg "Ring: capacity must be positive"

let create ?(key = fun _ -> None) capacity =
  check capacity;
  let index = Hashtbl.create 16 in
  { key; index; oldest = None; newest = None; length = 0; capacity }

let unlink t n =
  (match n.older with None -> t.oldest <- n.newer | Some o -> o.newer <- n.newer);
  match n.newer with None -> t.newest <- n.older | Some o -> o.older <- n.older

let link_newest t n =
  n.older <- t.newest;
  n.newer <- None;
  (match t.newest with None -> t.oldest <- Some n | Some o -> o.newer <- Some n);
  t.newest <- Some n

let drop t n =
  unlink t n;
  Option.iter (Hashtbl.remove t.index) (t.key n.v);
  t.length <- t.length - 1;
  n.v

let push t v =
  let evicted = if t.length >= t.capacity then Option.map (drop t) t.oldest else None in
  let n = { v; older = None; newer = None } in
  link_newest t n;
  Option.iter (fun k -> Hashtbl.replace t.index k n) (t.key v);
  t.length <- t.length + 1;
  evicted

let find t k = Option.map (fun n -> n.v) (Hashtbl.find_opt t.index k)

let touch t k =
  Option.iter
    (fun n ->
      unlink t n;
      link_newest t n)
    (Hashtbl.find_opt t.index k)

let remove t k = Option.iter (fun n -> ignore (drop t n)) (Hashtbl.find_opt t.index k)

let to_list t =
  let rec go acc = function None -> acc | Some n -> go (n.v :: acc) n.older in
  go [] t.newest

let capacity t = t.capacity

let clear t =
  t.oldest <- None;
  t.newest <- None;
  Hashtbl.reset t.index;
  t.length <- 0

let resize t n =
  check n;
  t.capacity <- n;
  let evicted = max 0 (t.length - n) in
  for _ = 1 to evicted do
    Option.iter (fun o -> ignore (drop t o)) t.oldest
  done;
  evicted
