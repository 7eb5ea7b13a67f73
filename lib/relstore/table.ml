(* The row heap is a persistent map and the indexes hold persistent
   maps too, so a table is a handful of root pointers: {!snapshot}
   copies them in O(indexes) and the copy shares every row with the
   live table.  [count] caches the heap's cardinality.  Heap writes go
   through the table's own [edit] token, so between two snapshots they
   update in place the trie nodes they made instead of copying a path
   per write. *)
type t = {
  schema : Schema.t;
  mutable rows : Row.t Intmap.t;
  edit : Intmap.edit;
  mutable count : int;
  mutable next_id : int;
  mutable indexes : Index.t list;
  uid : int;
  mutable epoch : int;
}

(* Process-unique table identity, so caches keyed by table survive a
   table being garbage-collected and another allocated at the same
   address: a uid is never reused.  Atomic because provd's ingest
   domain takes snapshots while reader domains create tables. *)
let next_uid = Atomic.make 0
let fresh_uid () = Atomic.fetch_and_add next_uid 1 + 1

let create schema =
  {
    schema;
    rows = Intmap.empty;
    edit = Intmap.edit ();
    count = 0;
    next_id = 1;
    indexes = [];
    uid = fresh_uid ();
    epoch = 0;
  }

(* A fresh uid keeps the copy's (uid, epoch) cache keys disjoint from
   the source's, whichever of the two is mutated afterwards.  Freezing
   the source's token keeps either side from writing the nodes they
   share in place; the copy writes through a token of its own. *)
let snapshot t =
  Intmap.freeze t.edit;
  {
    t with
    uid = fresh_uid ();
    edit = Intmap.edit ();
    indexes = List.map Index.copy t.indexes;
  }

let schema t = t.schema
let name t = Schema.name t.schema
let row_count t = t.count
let uid t = t.uid
let epoch t = t.epoch
let bump t = t.epoch <- t.epoch + 1

let insert t row =
  Schema.validate_row t.schema row;
  let rowid = t.next_id in
  (* A live row at next_id means the id counter is corrupt (e.g. a
     doctored serialized image): overwriting would silently destroy
     data, so refuse. *)
  if Intmap.mem rowid t.rows then
    Errors.corrupt "table %s: fresh rowid %d already occupied (corrupt next_id)"
      (name t) rowid;
  (* Check unique indexes before mutating anything so a violation leaves
     the table untouched. *)
  List.iter
    (fun idx ->
      if Index.is_unique idx then begin
        let key = Index.key_of_row idx row in
        if Index.mem idx key then
          Errors.constraint_violation "table %s: unique index %s violated"
            (name t) (Index.name idx)
      end)
    t.indexes;
  t.rows <- Intmap.add ~edit:t.edit rowid row t.rows;
  t.count <- t.count + 1;
  List.iter (fun idx -> Index.add idx rowid row) t.indexes;
  t.next_id <- rowid + 1;
  bump t;
  rowid

let insert_fields t fields = insert t (Row.of_alist t.schema fields)

let get_opt t rowid = Intmap.find_opt rowid t.rows

let get t rowid =
  match Intmap.find rowid t.rows with
  | row -> row
  | exception Not_found -> raise (Errors.No_such_row rowid)

let mem t rowid = Intmap.mem rowid t.rows

let update t rowid row =
  let old_row = get t rowid in
  Schema.validate_row t.schema row;
  List.iter
    (fun idx ->
      if Index.is_unique idx then begin
        let key = Index.key_of_row idx row in
        match Index.find_one idx key with
        | Some other when other <> rowid ->
          Errors.constraint_violation "table %s: unique index %s violated"
            (name t) (Index.name idx)
        | _ -> ()
      end)
    t.indexes;
  (* An index whose key the update leaves alone keeps its entry: a
     point update of an unindexed column touches no index. *)
  let moved =
    List.filter
      (fun idx ->
        not (List.equal Value.equal (Index.key_of_row idx old_row) (Index.key_of_row idx row)))
      t.indexes
  in
  List.iter (fun idx -> Index.remove idx rowid old_row) moved;
  t.rows <- Intmap.add ~edit:t.edit rowid row t.rows;
  List.iter (fun idx -> Index.add idx rowid row) moved;
  bump t

let update_field t rowid column v =
  let row = get t rowid in
  update t rowid (Row.set t.schema row column v)

let delete t rowid =
  let row = get t rowid in
  List.iter (fun idx -> Index.remove idx rowid row) t.indexes;
  t.rows <- Intmap.remove ~edit:t.edit rowid t.rows;
  t.count <- t.count - 1;
  bump t

let iter t f = Intmap.iter f t.rows
let fold t ~init ~f = Intmap.fold (fun rowid row acc -> f acc rowid row) t.rows init
let rows t = Intmap.bindings t.rows

let add_index ?unique t ~name:iname ~columns =
  if List.exists (fun idx -> Index.name idx = iname) t.indexes then
    invalid_arg ("Table.add_index: duplicate index " ^ iname);
  let idx = Index.create ?unique ~name:iname ~columns t.schema in
  iter t (fun rowid row -> Index.add idx rowid row);
  t.indexes <- t.indexes @ [ idx ];
  (* A new index changes the plans (and thus the scan counts) cached
     results were computed under. *)
  bump t

let index t iname = List.find (fun idx -> Index.name idx = iname) t.indexes
let indexes t = t.indexes

let find_index_on t columns =
  List.find_opt (fun idx -> Index.column_names idx = columns) t.indexes

let find_by t ~columns key =
  (* Checked up front so the indexed and scan paths agree: the indexed
     path used to return [] on a short key while the scan path raised a
     bare Invalid_argument from List.for_all2. *)
  if List.length columns <> List.length key then
    Errors.arity_mismatch "table %s: find_by got %d columns but %d key values"
      (name t) (List.length columns) (List.length key);
  match find_index_on t columns with
  | Some idx ->
    List.map (fun rowid -> (rowid, get t rowid)) (Index.find idx key)
  | None ->
    let positions = List.map (Schema.column_index t.schema) columns in
    let matches row =
      List.for_all2 (fun pos v -> Value.equal row.(pos) v) positions key
    in
    List.filter (fun (_, row) -> matches row) (rows t)

let find_one_by t ~columns key =
  match find_by t ~columns key with [] -> None | hit :: _ -> Some hit

let serialize buf t =
  Schema.serialize buf t.schema;
  Provkit_util.Varint.write_unsigned buf t.next_id;
  Provkit_util.Varint.write_unsigned buf (row_count t);
  List.iter
    (fun (rowid, row) ->
      Provkit_util.Varint.write_unsigned buf rowid;
      Codec.write_row buf row)
    (rows t);
  (* Index definitions travel with the table; entries are rebuilt. *)
  Provkit_util.Varint.write_unsigned buf (List.length t.indexes);
  List.iter
    (fun idx ->
      Codec.write_string buf (Index.name idx);
      Buffer.add_char buf (if Index.is_unique idx then '\001' else '\000');
      Provkit_util.Varint.write_unsigned buf (List.length (Index.column_names idx));
      List.iter (Codec.write_string buf) (Index.column_names idx))
    t.indexes

let deserialize s pos =
  let schema = Schema.deserialize s pos in
  let next_id = Provkit_util.Varint.read_unsigned s pos in
  let n = Codec.read_count s pos in
  let t = create schema in
  let max_rowid = ref 0 in
  for _ = 1 to n do
    let rowid = Provkit_util.Varint.read_unsigned s pos in
    let row = Codec.read_row s pos in
    Schema.validate_row schema row;
    if Intmap.mem rowid t.rows then
      Errors.corrupt "table %s: duplicate rowid %d" (Schema.name schema) rowid;
    t.rows <- Intmap.add ~edit:t.edit rowid row t.rows;
    t.count <- t.count + 1;
    if rowid > !max_rowid then max_rowid := rowid
  done;
  (* Never trust the stored counter below the loaded rows: a corrupt or
     hand-edited image would otherwise make later inserts land on live
     rowids.  Values above max+1 are kept — deletes legitimately leave
     the counter past the surviving rows. *)
  t.next_id <- max next_id (!max_rowid + 1);
  let nidx = Codec.read_count s pos in
  for _ = 1 to nidx do
    let iname = Codec.read_string s pos in
    let unique =
      if !pos >= String.length s then Errors.corrupt "table: truncated index flag"
      else begin
        let c = s.[!pos] in
        incr pos;
        c = '\001'
      end
    in
    let ncols = Codec.read_count s pos in
    let columns = List.init ncols (fun _ -> Codec.read_string s pos) in
    add_index ~unique t ~name:iname ~columns
  done;
  (* The loads above replaced rows and rewrote next_id without going
     through insert, so the epoch never moved: a cache or view keyed to
     (uid, 0) would treat the freshly loaded table as unchanged.  The
     uid being fresh makes that unlikely today, but nothing type-checks
     that assumption — bump unconditionally. *)
  bump t;
  t

(* Exact byte length of [serialize]'s output; the buffer round trip
   keeps this impossible to get out of sync with the format. *)
let data_size t =
  let buf = Buffer.create 4096 in
  serialize buf t;
  Buffer.length buf

let index_size t =
  List.fold_left (fun acc idx -> acc + Index.serialized_size idx) 0 t.indexes

let total_size t = data_size t + index_size t
