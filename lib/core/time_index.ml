type view = {
  closed : (int * int * int) array;  (* (opened, node, closed) sorted by opened *)
  longest : int;  (* the longest closed interval's length *)
  still_open : (int * int) array;  (* (opened, node) sorted by opened *)
}

type t = {
  intervals : (int, int * int option) Hashtbl.t;
  mutable view : view option;  (* rebuilt on demand; invalidated on writes *)
}

let create () = { intervals = Hashtbl.create 1024; view = None }

let add t ~node ~opened =
  Hashtbl.replace t.intervals node (opened, None);
  t.view <- None

let close t ~node ~closed =
  match Hashtbl.find_opt t.intervals node with
  | None -> ()
  | Some (opened, _) ->
    Hashtbl.replace t.intervals node (opened, Some (max opened closed));
    t.view <- None

let interval t node = Hashtbl.find_opt t.intervals node
let size t = Hashtbl.length t.intervals

let view t =
  match t.view with
  | Some v -> v
  | None ->
    let closed, still_open =
      Hashtbl.fold
        (fun node (o, c) (closed, still_open) ->
          match c with
          | Some c -> ((o, node, c) :: closed, still_open)
          | None -> (closed, (o, node) :: still_open))
        t.intervals ([], [])
    in
    let closed = Array.of_list closed and still_open = Array.of_list still_open in
    Array.sort compare closed;
    Array.sort compare still_open;
    let longest = Array.fold_left (fun m (o, _, c) -> max m (c - o)) 0 closed in
    let v = { closed; longest; still_open } in
    t.view <- Some v;
    v

(* The first closed interval opened at or after [bound]. *)
let first_opened_from closed ~bound =
  let lo = ref 0 and hi = ref (Array.length closed) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let o, _, _ = closed.(mid) in
    if o < bound then lo := mid + 1 else hi := mid
  done;
  !lo

let in_window t ~start ~stop =
  let v = view t in
  let hits = ref [] in
  (* A closed interval reaching [start] opened no earlier than [longest]
     before it; scanning stops at the first one opened after [stop]. *)
  let bound = if start < min_int + v.longest then min_int else start - v.longest in
  let i = ref (first_opened_from v.closed ~bound) in
  while !i < Array.length v.closed && (let o, _, _ = v.closed.(!i) in o <= stop) do
    let _, node, c = v.closed.(!i) in
    if c >= start then hits := node :: !hits;
    incr i
  done;
  (* An open interval extends forever, so it intersects iff it opened by
     [stop]. *)
  let i = ref 0 in
  while !i < Array.length v.still_open && fst v.still_open.(!i) <= stop do
    hits := snd v.still_open.(!i) :: !hits;
    incr i
  done;
  List.sort Int.compare !hits

let currently_open t ~at = in_window t ~start:at ~stop:at

let co_open t ~node =
  match interval t node with
  | None -> []
  | Some (o, c) ->
    let stop = match c with None -> max_int | Some c -> c in
    List.filter (fun other -> other <> node) (in_window t ~start:o ~stop)

let overlap t a b =
  match (interval t a, interval t b) with
  | Some (oa, ca), Some (ob, cb) ->
    let stop_a = match ca with None -> max_int | Some c -> c in
    let stop_b = match cb with None -> max_int | Some c -> c in
    oa <= stop_b && ob <= stop_a
  | _ -> false

let direction t a b =
  match (interval t a, interval t b) with
  | Some (oa, _), Some (ob, _) ->
    if oa <= ob then Some (a, b) else Some (b, a)
  | _ -> None
