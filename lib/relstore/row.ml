type t = Value.t array

let of_alist schema fields =
  let row = Array.make (Schema.arity schema) Value.Null in
  let seen = Array.make (Schema.arity schema) false in
  List.iter
    (fun (name, v) ->
      let i = Schema.column_index schema name in
      if seen.(i) then invalid_arg ("Row.of_alist: duplicate field " ^ name);
      seen.(i) <- true;
      row.(i) <- v)
    fields;
  row

let get schema row name = row.(Schema.column_index schema name)
let int schema row name = Value.to_int (get schema row name)
let int_opt schema row name = Value.to_int_opt (get schema row name)
let real schema row name = Value.to_real (get schema row name)
let text schema row name = Value.to_text (get schema row name)
let text_opt schema row name = Value.to_text_opt (get schema row name)
let bool schema row name = Value.to_bool (get schema row name)

let set schema row name v =
  let row' = Array.copy row in
  row'.(Schema.column_index schema name) <- v;
  row'

let pp schema ppf row =
  Format.fprintf ppf "{";
  Array.iteri
    (fun i v ->
      let c = (Schema.columns schema).(i) in
      if i > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "%s=%a" c.Column.name Value.pp v)
    row;
  Format.fprintf ppf "}"
