type visit = {
  visit_id : int;
  time : int;
  tab : int;
  page : int option;
  url : Webmodel.Url.t;
  title : string;
  transition : Transition.t;
  referrer : int option;
  via_bookmark : int option;
}

type t =
  | Visit of visit
  | Close of { time : int; tab : int; visit_id : int }
  | Tab_opened of { time : int; tab : int; opener_tab : int option }
  | Tab_closed of { time : int; tab : int }
  | Bookmark_added of {
      time : int;
      bookmark_id : int;
      visit_id : int;
      url : Webmodel.Url.t;
      title : string;
    }
  | Search of { time : int; search_id : int; query : string; serp_visit : int }
  | Download_started of {
      time : int;
      download_id : int;
      visit_id : int;
      source_visit : int;
      url : Webmodel.Url.t;
      target_path : string;
    }
  | Form_submitted of {
      time : int;
      form_id : int;
      source_visit : int;
      result_visit : int;
      fields : (string * string) list;
    }

let time = function
  | Visit v -> v.time
  | Close c -> c.time
  | Tab_opened t -> t.time
  | Tab_closed t -> t.time
  | Bookmark_added b -> b.time
  | Search s -> s.time
  | Download_started d -> d.time
  | Form_submitted f -> f.time
