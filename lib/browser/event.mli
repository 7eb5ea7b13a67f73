(** The browser's event stream.

    Everything downstream — the Places baseline store and the provenance
    capture layer — consumes exactly these events.  The events carry
    *more* information than Firefox persists (close times, referrers for
    typed navigations, the query behind a search); Places deliberately
    drops those fields, the provenance layer keeps them.  That gap is
    the paper's §3.2 argument, and experiment E11 measures it. *)

type visit = {
  visit_id : int;  (** unique, engine-assigned *)
  time : int;  (** simulated unix seconds *)
  tab : int;
  page : int option;  (** synthetic web page id; [None] for SERPs *)
  url : Webmodel.Url.t;
  title : string;
  transition : Transition.t;
  referrer : int option;  (** visit_id that caused this one, if any *)
  via_bookmark : int option;  (** bookmark id when [transition = Bookmark] *)
}

type t =
  | Visit of visit
  | Close of { time : int; tab : int; visit_id : int }
      (** The visit stopped being displayed (navigation away or tab
          close).  Firefox records nothing for this. *)
  | Tab_opened of { time : int; tab : int; opener_tab : int option }
  | Tab_closed of { time : int; tab : int }
  | Bookmark_added of {
      time : int;
      bookmark_id : int;
      visit_id : int;  (** the visit being bookmarked *)
      url : Webmodel.Url.t;
      title : string;
    }
  | Search of {
      time : int;
      search_id : int;
      query : string;
      serp_visit : int;  (** visit id of the result page *)
    }
  | Download_started of {
      time : int;
      download_id : int;
      visit_id : int;  (** the Download-transition visit fetching the file *)
      source_visit : int;  (** visit of the page the user downloaded from *)
      url : Webmodel.Url.t;
      target_path : string;  (** local destination *)
    }
  | Form_submitted of {
      time : int;
      form_id : int;
      source_visit : int;
      result_visit : int;
      fields : (string * string) list;
    }

val time : t -> int
