type t = {
  scheme : string;
  host : string;
  path : string list;
  query : (string * string) list;
}

let make ?(scheme = "http") ?(path = []) ?(query = []) host =
  if host = "" then invalid_arg "Url.make: empty host";
  { scheme; host; path; query }

let to_string t =
  let buf = Buffer.create 64 in
  Buffer.add_string buf t.scheme;
  Buffer.add_string buf "://";
  Buffer.add_string buf t.host;
  List.iter
    (fun seg ->
      Buffer.add_char buf '/';
      Buffer.add_string buf seg)
    t.path;
  (match t.query with
  | [] -> ()
  | q ->
    Buffer.add_char buf '?';
    Buffer.add_string buf
      (String.concat "&" (List.map (fun (k, v) -> k ^ "=" ^ v) q)));
  Buffer.contents buf

let of_string s =
  let body, scheme =
    match String.index_opt s ':' with
    | Some i
      when i + 2 < String.length s && s.[i + 1] = '/' && s.[i + 2] = '/' ->
      (String.sub s (i + 3) (String.length s - i - 3), String.sub s 0 i)
    | _ -> (s, "http")
  in
  let before_query, query_str =
    match String.index_opt body '?' with
    | Some i ->
      (String.sub body 0 i, Some (String.sub body (i + 1) (String.length body - i - 1)))
    | None -> (body, None)
  in
  let host, path =
    match String.index_opt before_query '/' with
    | Some i ->
      let host = String.sub before_query 0 i in
      let rest = String.sub before_query (i + 1) (String.length before_query - i - 1) in
      (host, List.filter (fun seg -> seg <> "") (String.split_on_char '/' rest))
    | None -> (before_query, [])
  in
  let query =
    match query_str with
    | None -> []
    | Some q ->
      List.filter_map
        (fun pair ->
          match String.index_opt pair '=' with
          | Some i ->
            Some (String.sub pair 0 i, String.sub pair (i + 1) (String.length pair - i - 1))
          | None -> if pair = "" then None else Some (pair, ""))
        (String.split_on_char '&' q)
  in
  if host = "" then invalid_arg ("Url.of_string: no host in " ^ s);
  { scheme; host; path; query }

let host t = t.host
