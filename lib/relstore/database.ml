type t = { name : string; tables : (string, Table.t) Hashtbl.t }

let magic = "RELSTORE1"

let create ~name = { name; tables = Hashtbl.create 16 }
let name t = t.name

let create_table t schema =
  let tname = Schema.name schema in
  if Hashtbl.mem t.tables tname then
    invalid_arg ("Database.create_table: duplicate table " ^ tname);
  let table = Table.create schema in
  Hashtbl.replace t.tables tname table;
  table

let snapshot t =
  let tables = Hashtbl.create (Hashtbl.length t.tables) in
  Hashtbl.iter (fun tname tbl -> Hashtbl.replace tables tname (Table.snapshot tbl)) t.tables;
  { name = t.name; tables }

let table_opt t tname = Hashtbl.find_opt t.tables tname

let table t tname =
  match table_opt t tname with
  | Some tbl -> tbl
  | None -> raise (Errors.No_such_table tname)

let tables t =
  let all = Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.tables [] in
  List.sort (fun a b -> String.compare (Table.name a) (Table.name b)) all

let to_bytes t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Codec.write_string buf t.name;
  let tbls = tables t in
  Provkit_util.Varint.write_unsigned buf (List.length tbls);
  List.iter (fun tbl -> Table.serialize buf tbl) tbls;
  Buffer.contents buf

(* Deserialization is a trust boundary: damaged bytes may decode into
   *structurally* invalid content (duplicate columns, rows violating the
   schema, indexes on unknown columns) whose constructors raise their
   own exceptions.  Surface every such failure as [Corrupt] so callers
   need handle exactly one exception for "this file is bad". *)
let of_bytes s =
  try
    let pos = ref 0 in
    let lm = String.length magic in
    if String.length s < lm || String.sub s 0 lm <> magic then
      Errors.corrupt "database: bad magic";
    pos := lm;
    let dbname = Codec.read_string s pos in
    let n = Codec.read_count s pos in
    let db = create ~name:dbname in
    for _ = 1 to n do
      let tbl = Table.deserialize s pos in
      Hashtbl.replace db.tables (Table.name tbl) tbl
    done;
    db
  with
  | Errors.Corrupt _ as e -> raise e
  | Errors.Type_mismatch m | Errors.Constraint_violation m ->
    Errors.corrupt "database: invalid content: %s" m
  | Errors.No_such_column m -> Errors.corrupt "database: index on unknown column %s" m
  | Invalid_argument m | Failure m -> Errors.corrupt "database: malformed image: %s" m

let save t ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_bytes t))

let load ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_bytes (really_input_string ic len))

type size_breakdown = {
  table_name : string;
  rows : int;
  data_bytes : int;
  index_bytes : int;
}

let size_breakdown t =
  List.map
    (fun tbl ->
      {
        table_name = Table.name tbl;
        rows = Table.row_count tbl;
        data_bytes = Table.data_size tbl;
        index_bytes = Table.index_size tbl;
      })
    (tables t)

let header_size t =
  String.length magic
  + Provkit_util.Varint.size_unsigned (String.length t.name)
  + String.length t.name
  + Provkit_util.Varint.size_unsigned (Hashtbl.length t.tables)

let total_size t =
  List.fold_left (fun acc tbl -> acc + Table.total_size tbl) (header_size t) (tables t)
