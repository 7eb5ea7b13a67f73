(* One direction of adjacency for every node: node [id]'s edges are
   [ends.(id)] (the other endpoints) and [labs.(id)], oldest first, of
   which the first [lens.(id)] slots are used. *)
type 'e side = {
  mutable ends : int array array;
  mutable labs : 'e array array;
  mutable lens : int array;
}

(* Every per-node array is indexed by node id and has the same length,
   the capacity. *)
type ('n, 'e) t = {
  mutable payload : 'n array;  (* a slot without a node holds a filler payload *)
  mutable present : Bytes.t;  (* bit [id] set iff node [id] exists *)
  out_adj : 'e side;
  in_adj : 'e side;
  mutable nodes : int;
  mutable edges : int;
  mutable bound : int;  (* one more than the largest id added *)
  initial_capacity : int;
}

let side () = { ends = [||]; labs = [||]; lens = [||] }

let create ?(initial_capacity = 256) () =
  {
    payload = [||];
    present = Bytes.empty;
    out_adj = side ();
    in_adj = side ();
    nodes = 0;
    edges = 0;
    bound = 0;
    initial_capacity = max 1 initial_capacity;
  }

let mem_node t id =
  id >= 0 && id < t.bound
  && Char.code (Bytes.unsafe_get t.present (id lsr 3)) land (1 lsl (id land 7)) <> 0

let node_opt t id = if mem_node t id then Some t.payload.(id) else None
let node t id = if mem_node t id then t.payload.(id) else raise Not_found

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let extend_side s n =
  s.ends <- extend s.ends n [||];
  s.labs <- extend s.labs n [||];
  s.lens <- extend s.lens n 0

(* Room for ids below [id + 1]; [filler] pads the new payload slots. *)
let reserve t id filler =
  let cap = Array.length t.payload in
  if id >= cap then begin
    let n = max (id + 1) (if cap = 0 then t.initial_capacity else 2 * cap) in
    t.payload <- extend t.payload n filler;
    let present = Bytes.make ((n + 7) / 8) '\000' in
    Bytes.blit t.present 0 present 0 (Bytes.length t.present);
    t.present <- present;
    extend_side t.out_adj n;
    extend_side t.in_adj n
  end

let add_node t id payload =
  if id < 0 then invalid_arg "Digraph.add_node: negative id";
  reserve t id payload;
  t.payload.(id) <- payload;
  if not (mem_node t id) then begin
    let byte = id lsr 3 in
    Bytes.set t.present byte
      (Char.chr (Char.code (Bytes.get t.present byte) lor (1 lsl (id land 7))));
    t.nodes <- t.nodes + 1;
    if id >= t.bound then t.bound <- id + 1
  end

let push s id other label =
  let n = s.lens.(id) in
  if n = Array.length s.ends.(id) then begin
    let cap = max 4 (2 * n) in
    s.ends.(id) <- extend s.ends.(id) cap 0;
    s.labs.(id) <- extend s.labs.(id) cap label
  end;
  s.ends.(id).(n) <- other;
  s.labs.(id).(n) <- label;
  s.lens.(id) <- n + 1

let add_edge t ~src ~dst label =
  if not (mem_node t src) then invalid_arg "Digraph.add_edge: unknown src";
  if not (mem_node t dst) then invalid_arg "Digraph.add_edge: unknown dst";
  push t.out_adj src dst label;
  push t.in_adj dst src label;
  t.edges <- t.edges + 1

let bound t = t.bound

(* Callers check [mem_node] first: slots past the bound do not exist. *)
let fold_side s id ~init ~f =
  let acc = ref init and ends = s.ends.(id) and labs = s.labs.(id) in
  for i = 0 to s.lens.(id) - 1 do
    acc := f !acc (Array.unsafe_get ends i) (Array.unsafe_get labs i)
  done;
  !acc

let iter_side s id f =
  let ends = s.ends.(id) and labs = s.labs.(id) in
  for i = 0 to s.lens.(id) - 1 do
    f (Array.unsafe_get ends i) (Array.unsafe_get labs i)
  done

let iter_out t id f = if mem_node t id then iter_side t.out_adj id f
let iter_in t id f = if mem_node t id then iter_side t.in_adj id f

let edge_list s id =
  let ends = s.ends.(id) and labs = s.labs.(id) in
  let rec build i acc = if i < 0 then acc else build (i - 1) ((ends.(i), labs.(i)) :: acc) in
  build (s.lens.(id) - 1) []

let out_edges t id = if mem_node t id then edge_list t.out_adj id else []
let in_edges t id = if mem_node t id then edge_list t.in_adj id else []

let node_count t = t.nodes
let edge_count t = t.edges

let fold_nodes t ~init ~f =
  let acc = ref init in
  for id = 0 to t.bound - 1 do
    if mem_node t id then acc := f !acc id t.payload.(id)
  done;
  !acc

let iter_nodes t f = fold_nodes t ~init:() ~f:(fun () id p -> f id p)
let nodes t = List.rev (fold_nodes t ~init:[] ~f:(fun acc id _ -> id :: acc))

let fold_edges t ~init ~f =
  let acc = ref init in
  for src = 0 to t.bound - 1 do
    acc := fold_side t.out_adj src ~init:!acc ~f:(fun acc dst e -> f acc src dst e)
  done;
  !acc

let iter_edges t f = fold_edges t ~init:() ~f:(fun () src dst e -> f src dst e)

let filter_nodes t p =
  List.rev (fold_nodes t ~init:[] ~f:(fun acc id payload -> if p id payload then id :: acc else acc))
