exception Type_mismatch of string
exception Constraint_violation of string
exception No_such_table of string
exception No_such_column of string
exception No_such_row of int
exception Arity_mismatch of string
exception Corrupt = Provkit_util.Varint.Corrupt

let type_mismatch fmt = Format.kasprintf (fun s -> raise (Type_mismatch s)) fmt
let constraint_violation fmt = Format.kasprintf (fun s -> raise (Constraint_violation s)) fmt
let arity_mismatch fmt = Format.kasprintf (fun s -> raise (Arity_mismatch s)) fmt
let corrupt = Provkit_util.Varint.corrupt
