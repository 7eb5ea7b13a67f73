type tab_state = { opener : int option; mutable current : int option }

type t = { mutable next : int; open_tabs : (int, tab_state) Hashtbl.t }

let create () = { next = 1; open_tabs = Hashtbl.create 8 }

let open_tab t ?opener () =
  let id = t.next in
  t.next <- id + 1;
  Hashtbl.replace t.open_tabs id { opener; current = None };
  id

let state t tab =
  match Hashtbl.find_opt t.open_tabs tab with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Tabs: tab %d is not open" tab)

let close_tab t tab =
  let _ = state t tab in
  Hashtbl.remove t.open_tabs tab

let open_tabs t =
  List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.open_tabs [])

let opener t tab = (state t tab).opener
let current_visit t tab = (state t tab).current
let set_current_visit t tab visit = (state t tab).current <- Some visit
