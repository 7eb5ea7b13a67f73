let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let short s = Provkit_util.Strutil.truncate 32 s

let node_attributes (n : Prov_node.t) =
  let label, shape, extra =
    match n.Prov_node.kind with
    | Prov_node.Page { title; url } ->
      ((if title = "" then url else title), "box", [ ("style", "filled"); ("fillcolor", "lightyellow") ])
    | Prov_node.Visit { title; transition; _ } ->
      ( Printf.sprintf "%s\n(%s)" (short title) (Browser.Transition.name transition),
        "ellipse", [] )
    | Prov_node.Bookmark { title; _ } ->
      ("bookmark: " ^ short title, "house", [ ("style", "filled"); ("fillcolor", "lightblue") ])
    | Prov_node.Download { target_path; _ } ->
      ("download: " ^ short target_path, "note", [ ("style", "filled"); ("fillcolor", "lightpink") ])
    | Prov_node.Search_term { query } ->
      ("search: " ^ short query, "diamond", [ ("style", "filled"); ("fillcolor", "lightgreen") ])
    | Prov_node.Form_submission _ -> ("form", "trapezium", [])
  in
  [ ("label", short label); ("shape", shape) ] @ extra

let attr_string attrs =
  String.concat ", "
    (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape v)) attrs)

let header = "digraph provenance {\n  rankdir=LR;\n  node [fontsize=9];\n  edge [fontsize=8];\n"

let export_lineage store (origin : Lineage.origin) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf header;
  List.iter
    (fun id ->
      match Prov_store.node_opt store id with
      | Some n ->
        Buffer.add_string buf (Printf.sprintf "  n%d [%s];\n" id (attr_string (node_attributes n)))
      | None -> ())
    origin.Lineage.path;
  let rec chain = function
    | a :: (b :: _ as rest) ->
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" b a);
      chain rest
    | _ -> ()
  in
  chain origin.Lineage.path;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let save ~path dot =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc dot)
