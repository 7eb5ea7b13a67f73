type t = { name : string; ty : Value.ty; nullable : bool }

let make ?(nullable = false) name ty = { name; ty; nullable }

let accepts t v =
  match Value.type_of v with
  | None -> t.nullable
  | Some ty -> ty = t.ty
