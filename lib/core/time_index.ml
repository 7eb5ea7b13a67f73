(* Closed intervals sorted by opening time (ties by node), as three
   parallel arrays, with the longest one's length; still-open intervals
   apart, sorted the same way. *)
type view = {
  opens : int array;
  nodes : int array;
  closes : int array;
  longest : int;
  open_opens : int array;
  open_nodes : int array;
}

(* Per node id: its state ('\000' unknown, '\001' open, '\002' closed),
   opening time and closing time, in arrays indexed by id. *)
type t = {
  mutable state : Bytes.t;
  mutable opened : int array;
  mutable closed : int array;
  mutable size : int;
  mutable view : view option;  (* rebuilt on demand; invalidated on writes *)
}

let create () =
  { state = Bytes.empty; opened = [||]; closed = [||]; size = 0; view = None }

let known t node = node >= 0 && node < Bytes.length t.state && Bytes.get t.state node <> '\000'

let add t ~node ~opened =
  if node < 0 then invalid_arg "Time_index.add: negative node";
  let have = Bytes.length t.state in
  if node >= have then begin
    let n = max (node + 1) (max 256 (2 * have)) in
    let extend a =
      let b = Array.make n 0 in
      Array.blit a 0 b 0 have;
      b
    in
    let state = Bytes.make n '\000' in
    Bytes.blit t.state 0 state 0 have;
    t.state <- state;
    t.opened <- extend t.opened;
    t.closed <- extend t.closed
  end;
  if not (known t node) then t.size <- t.size + 1;
  Bytes.set t.state node '\001';
  t.opened.(node) <- opened;
  t.view <- None

let close t ~node ~closed =
  if known t node then begin
    Bytes.set t.state node '\002';
    t.closed.(node) <- max t.opened.(node) closed;
    t.view <- None
  end

let mem = known
let opened t node = t.opened.(node)
let closed t node = if Bytes.get t.state node = '\002' then t.closed.(node) else max_int

let interval t node =
  if not (known t node) then None
  else if Bytes.get t.state node = '\002' then Some (t.opened.(node), Some t.closed.(node))
  else Some (t.opened.(node), None)

let view t =
  match t.view with
  | Some v -> v
  | None ->
    let closed = ref [] and still_open = ref [] in
    for node = Bytes.length t.state - 1 downto 0 do
      match Bytes.get t.state node with
      | '\002' -> closed := (t.opened.(node), node, t.closed.(node)) :: !closed
      | '\001' -> still_open := (t.opened.(node), node) :: !still_open
      | _ -> ()
    done;
    let closed = Array.of_list !closed and still_open = Array.of_list !still_open in
    Array.sort compare closed;
    Array.sort compare still_open;
    let v =
      {
        opens = Array.map (fun (o, _, _) -> o) closed;
        nodes = Array.map (fun (_, n, _) -> n) closed;
        closes = Array.map (fun (_, _, c) -> c) closed;
        longest = Array.fold_left (fun m (o, _, c) -> max m (c - o)) 0 closed;
        open_opens = Array.map fst still_open;
        open_nodes = Array.map snd still_open;
      }
    in
    t.view <- Some v;
    v

(* The first closed interval opened at or after [bound]. *)
let first_opened_from opens ~bound =
  let lo = ref 0 and hi = ref (Array.length opens) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if opens.(mid) < bound then lo := mid + 1 else hi := mid
  done;
  !lo

let iter_window t ~start ~stop f =
  let v = view t in
  (* A closed interval reaching [start] opened no earlier than [longest]
     before it; scanning stops at the first one opened after [stop]. *)
  let bound = if start < min_int + v.longest then min_int else start - v.longest in
  let i = ref (first_opened_from v.opens ~bound) in
  while !i < Array.length v.opens && v.opens.(!i) <= stop do
    if v.closes.(!i) >= start then f v.nodes.(!i);
    incr i
  done;
  (* An open interval extends forever, so it intersects iff it opened by
     [stop]. *)
  let i = ref 0 in
  while !i < Array.length v.open_opens && v.open_opens.(!i) <= stop do
    f v.open_nodes.(!i);
    incr i
  done

let in_window t ~start ~stop =
  let hits = ref [] in
  iter_window t ~start ~stop (fun node -> hits := node :: !hits);
  List.sort Int.compare !hits

let overlap t a b =
  match (interval t a, interval t b) with
  | Some (oa, ca), Some (ob, cb) ->
    let stop_a = match ca with None -> max_int | Some c -> c in
    let stop_b = match cb with None -> max_int | Some c -> c in
    oa <= stop_b && ob <= stop_a
  | _ -> false
