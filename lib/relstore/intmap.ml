(* A 32-way radix trie.  [levels] Inner levels sit above the values, so
   the root covers keys below [width ^ levels]; an update copies one
   32-slot array per level, and the root grows a level when a key does
   not fit.

   Each Inner node carries the stamp of the edit token whose write made
   it.  A write through a token still holding that stamp updates the
   node in place; any other write copies it.  {!freeze} gives a token a
   new stamp. *)
let bits = 5
let width = 1 lsl bits
let mask = width - 1

type stamp = unit ref
type edit = { mutable stamp : stamp }
type 'a node = Empty | Value of 'a | Inner of stamp * 'a node array
type 'a t = { levels : int; root : 'a node }

let edit () = { stamp = ref () }
let freeze e = e.stamp <- ref ()
let empty = { levels = 1; root = Empty }
let fits k t = k lsr (bits * t.levels) = 0

let find k t =
  let rec go k node shift =
    match node with
    | Inner (_, slots) -> go k (Array.unsafe_get slots ((k lsr shift) land mask)) (shift - bits)
    | Value v -> v
    | Empty -> raise Not_found
  in
  if k < 0 || not (fits k t) then raise Not_found;
  go k t.root (bits * (t.levels - 1))

let find_opt k t = match find k t with v -> Some v | exception Not_found -> None
let mem k t = match find k t with _ -> true | exception Not_found -> false

(* Rebuild the path to [k], replacing what sits there by [leaf]; nodes
   [own] made are reused in place. *)
let update own k leaf t =
  let rec go node shift =
    if shift < 0 then leaf
    else
      match node with
      | Inner (o, slots) when o == own -> set node slots shift
      | Inner (_, slots) ->
        let slots = Array.copy slots in
        set (Inner (own, slots)) slots shift
      | Empty | Value _ ->
        let slots = Array.make width Empty in
        set (Inner (own, slots)) slots shift
  and set node slots shift =
    let i = (k lsr shift) land mask in
    slots.(i) <- go slots.(i) (shift - bits);
    (* Only a removal can empty a node; dropping it keeps folds short. *)
    if leaf == Empty && Array.for_all (fun n -> n == Empty) slots then Empty else node
  in
  let root = go t.root (bits * (t.levels - 1)) in
  if root == t.root then t else { t with root }

let add ~edit k v t =
  if k < 0 then invalid_arg "Intmap.add: negative key";
  let own = edit.stamp in
  let rec grow t =
    if fits k t then t
    else
      let root =
        match t.root with
        | Empty -> Empty
        | root -> Inner (own, Array.init width (fun i -> if i = 0 then root else Empty))
      in
      grow { levels = t.levels + 1; root }
  in
  update own k (Value v) (grow t)

let fold f t acc =
  let rec go node key shift acc =
    match node with
    | Empty -> acc
    | Value v -> f key v acc
    | Inner (_, slots) ->
      let acc = ref acc in
      for i = 0 to mask do
        acc := go (Array.unsafe_get slots i) (key lor (i lsl shift)) (shift - bits) !acc
      done;
      !acc
  in
  go t.root 0 (bits * (t.levels - 1)) acc

let iter f t = fold (fun k v () -> f k v) t ()
let bindings t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])
