module Key = struct
  type t = Value.t list

  let compare a b =
    let rec go a b =
      match (a, b) with
      | [], [] -> 0
      | [], _ -> -1
      | _, [] -> 1
      | x :: a', y :: b' ->
        let c = Value.compare x y in
        if c <> 0 then c else go a' b'
    in
    go a b
end

module Kmap = Map.Make (Key)
module Iset = Set.Make (Int)

type t = {
  name : string;
  columns : string list;
  positions : int array;
  unique : bool;
  mutable entries : Iset.t Kmap.t;
  mutable cardinal : int;
}

let create ?(unique = false) ~name ~columns schema =
  if columns = [] then invalid_arg "Index.create: no columns";
  let positions =
    Array.of_list (List.map (Schema.column_index schema) columns)
  in
  { name; columns; positions; unique; entries = Kmap.empty; cardinal = 0 }

(* [entries] is persistent, so copying the record is a complete,
   independent copy. *)
let copy t = { t with entries = t.entries }

let name t = t.name
let column_names t = t.columns
let is_unique t = t.unique

let key_of_row t row = Array.to_list (Array.map (fun i -> row.(i)) t.positions)

let add t rowid row =
  let key = key_of_row t row in
  let existing = Option.value ~default:Iset.empty (Kmap.find_opt key t.entries) in
  if t.unique && (not (Iset.is_empty existing)) && not (Iset.mem rowid existing)
  then
    Errors.constraint_violation "index %s: duplicate key for unique index" t.name;
  if not (Iset.mem rowid existing) then begin
    t.entries <- Kmap.add key (Iset.add rowid existing) t.entries;
    t.cardinal <- t.cardinal + 1
  end

let remove t rowid row =
  let key = key_of_row t row in
  match Kmap.find_opt key t.entries with
  | None -> ()
  | Some set ->
    if Iset.mem rowid set then begin
      let set' = Iset.remove rowid set in
      t.entries <-
        (if Iset.is_empty set' then Kmap.remove key t.entries
         else Kmap.add key set' t.entries);
      t.cardinal <- t.cardinal - 1
    end

let find t key =
  match Kmap.find_opt key t.entries with
  | None -> []
  | Some set -> Iset.elements set

let find_one t key =
  match Kmap.find_opt key t.entries with
  | None -> None
  | Some set -> Iset.min_elt_opt set

let mem t key = Kmap.mem key t.entries

let fold_range ?lo ?(lo_inclusive = true) ?hi ?(hi_inclusive = true) t ~init ~f =
  let in_lo key =
    match lo with
    | None -> true
    | Some l ->
      let c = Key.compare key l in
      c > 0 || (c = 0 && lo_inclusive)
  in
  let in_hi key =
    match hi with
    | None -> true
    | Some h ->
      let c = Key.compare key h in
      c < 0 || (c = 0 && hi_inclusive)
  in
  (* Seek to the lower bound, then stream until past the upper bound. *)
  let seq =
    match lo with
    | None -> Kmap.to_seq t.entries
    | Some l -> Kmap.to_seq_from l t.entries
  in
  let rec go acc seq =
    match seq () with
    | Seq.Nil -> acc
    | Seq.Cons ((key, set), rest) ->
      if not (in_hi key) then acc
      else begin
        let acc =
          if in_lo key then Iset.fold (fun rowid acc -> f acc key rowid) set acc
          else acc
        in
        go acc rest
      end
  in
  go init seq

let serialized_size t =
  Kmap.fold
    (fun key set acc ->
      let key_size =
        List.fold_left (fun s v -> s + Value.serialized_size v) 0 key
      in
      Iset.fold
        (fun rowid acc -> acc + key_size + Provkit_util.Varint.size_unsigned rowid)
        set acc)
    t.entries 0
