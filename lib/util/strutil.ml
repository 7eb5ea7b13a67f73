let is_prefix ~prefix s =
  let lp = String.length prefix in
  String.length s >= lp && String.sub s 0 lp = prefix

let is_suffix ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let contains_substring ~needle s =
  let ln = String.length needle and ls = String.length s in
  if ln = 0 then true
  else if ln > ls then false
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= ls - ln do
      if String.sub s !i ln = needle then found := true else incr i
    done;
    !found
  end

let truncate n s =
  if String.length s <= n then s
  else if n <= 3 then String.sub s 0 n
  else String.sub s 0 (n - 3) ^ "..."

let pad_right w s =
  let l = String.length s in
  if l >= w then s else s ^ String.make (w - l) ' '

let pad_left w s =
  let l = String.length s in
  if l >= w then s else String.make (w - l) ' ' ^ s

let repeat n s =
  let buf = Buffer.create (n * String.length s) in
  for _ = 1 to n do
    Buffer.add_string buf s
  done;
  Buffer.contents buf
