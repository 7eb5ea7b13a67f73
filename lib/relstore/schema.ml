type t = {
  name : string;
  columns : Column.t array;
  by_name : (string, int) Hashtbl.t;
}

let make ~name columns =
  if columns = [] then invalid_arg "Schema.make: no columns";
  let arr = Array.of_list columns in
  let by_name = Hashtbl.create (Array.length arr) in
  Array.iteri
    (fun i (c : Column.t) ->
      if Hashtbl.mem by_name c.name then
        invalid_arg ("Schema.make: duplicate column " ^ c.name);
      Hashtbl.add by_name c.name i)
    arr;
  { name; columns = arr; by_name }

let name t = t.name
let columns t = t.columns
let arity t = Array.length t.columns

let column_index t cname =
  match Hashtbl.find_opt t.by_name cname with
  | Some i -> i
  | None -> raise (Errors.No_such_column (t.name ^ "." ^ cname))

let validate_row t row =
  if Array.length row <> arity t then
    Errors.type_mismatch "table %s: row arity %d, expected %d" t.name
      (Array.length row) (arity t);
  Array.iteri
    (fun i v ->
      let c = t.columns.(i) in
      if not (Column.accepts c v) then
        if Value.is_null v then
          Errors.constraint_violation "table %s: column %s is NOT NULL" t.name c.name
        else
          Errors.type_mismatch "table %s: column %s expects %s, got %a" t.name
            c.name (Value.ty_name c.ty) Value.pp v)
    row

let ty_code = function
  | Value.Tint -> 0
  | Value.Treal -> 1
  | Value.Ttext -> 2
  | Value.Tblob -> 3
  | Value.Tbool -> 4

let ty_of_code = function
  | 0 -> Value.Tint
  | 1 -> Value.Treal
  | 2 -> Value.Ttext
  | 3 -> Value.Tblob
  | 4 -> Value.Tbool
  | c -> Errors.corrupt "schema: unknown type code %d" c

let serialize buf t =
  Codec.write_string buf t.name;
  Provkit_util.Varint.write_unsigned buf (arity t);
  Array.iter
    (fun (c : Column.t) ->
      Codec.write_string buf c.name;
      Provkit_util.Varint.write_unsigned buf (ty_code c.ty);
      Buffer.add_char buf (if c.nullable then '\001' else '\000'))
    t.columns

let deserialize s pos =
  let name = Codec.read_string s pos in
  let n = Codec.read_count s pos in
  let cols =
    List.init n (fun _ ->
        let cname = Codec.read_string s pos in
        let ty = ty_of_code (Provkit_util.Varint.read_unsigned s pos) in
        let nullable =
          if !pos >= String.length s then Errors.corrupt "schema: truncated"
          else begin
            let c = s.[!pos] in
            incr pos;
            c = '\001'
          end
        in
        Column.make ~nullable cname ty)
  in
  make ~name cols
