type ty = Tint | Treal | Ttext | Tblob | Tbool

type t =
  | Null
  | Int of int
  | Real of float
  | Text of string
  | Blob of bytes
  | Bool of bool

let type_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Real _ -> Some Treal
  | Text _ -> Some Ttext
  | Blob _ -> Some Tblob
  | Bool _ -> Some Tbool

let ty_name = function
  | Tint -> "INT"
  | Treal -> "REAL"
  | Ttext -> "TEXT"
  | Tblob -> "BLOB"
  | Tbool -> "BOOL"

(* Rank groups for the total order; Int and Real share a group so they
   compare numerically against each other. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Real _ -> 2
  | Text _ -> 3
  | Blob _ -> 4

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Real x, Real y -> Float.compare x y
  | Int x, Real y -> Float.compare (float_of_int x) y
  | Real x, Int y -> Float.compare x (float_of_int y)
  | Text x, Text y -> String.compare x y
  | Blob x, Blob y -> Bytes.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0
let is_null = function Null -> true | _ -> false

let pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Int n -> Format.pp_print_int ppf n
  | Real f -> Format.fprintf ppf "%g" f
  | Text s -> Format.fprintf ppf "%S" s
  | Blob b -> Format.fprintf ppf "x'%d bytes'" (Bytes.length b)
  | Bool b -> Format.pp_print_bool ppf b

let to_string v = Format.asprintf "%a" pp v

let to_int = function
  | Int n -> n
  | v -> Errors.type_mismatch "expected INT, got %a" pp v

let to_real = function
  | Real f -> f
  | Int n -> float_of_int n
  | v -> Errors.type_mismatch "expected REAL, got %a" pp v

let to_text = function
  | Text s -> s
  | v -> Errors.type_mismatch "expected TEXT, got %a" pp v

let to_bool = function
  | Bool b -> b
  | v -> Errors.type_mismatch "expected BOOL, got %a" pp v

let to_int_opt = function
  | Null -> None
  | Int n -> Some n
  | v -> Errors.type_mismatch "expected INT or NULL, got %a" pp v

let to_text_opt = function
  | Null -> None
  | Text s -> Some s
  | v -> Errors.type_mismatch "expected TEXT or NULL, got %a" pp v

let serialized_size = function
  | Null -> 1
  | Bool _ -> 1
  | Int n -> 1 + Provkit_util.Varint.size_signed n
  | Real _ -> 9
  | Text s -> 1 + Provkit_util.Varint.size_unsigned (String.length s) + String.length s
  | Blob b -> 1 + Provkit_util.Varint.size_unsigned (Bytes.length b) + Bytes.length b
