(* English function words plus web-chrome terms (www, html, com…) that
   carry no signal when matching history entries. *)
let words =
  [
    "a"; "about"; "above"; "after"; "again"; "against"; "all"; "am"; "an";
    "and"; "any"; "are"; "as"; "at"; "be"; "because"; "been"; "before";
    "being"; "below"; "between"; "both"; "but"; "by"; "can"; "did"; "do";
    "does"; "doing"; "down"; "during"; "each"; "few"; "for"; "from";
    "further"; "had"; "has"; "have"; "having"; "he"; "her"; "here"; "hers";
    "him"; "his"; "how"; "i"; "if"; "in"; "into"; "is"; "it"; "its";
    "just"; "me"; "more"; "most"; "my"; "no"; "nor"; "not"; "now"; "of";
    "off"; "on"; "once"; "only"; "or"; "other"; "our"; "ours"; "out";
    "over"; "own"; "same"; "she"; "should"; "so"; "some"; "such"; "than";
    "that"; "the"; "their"; "theirs"; "them"; "then"; "there"; "these";
    "they"; "this"; "those"; "through"; "to"; "too"; "under"; "until";
    "up"; "very"; "was"; "we"; "were"; "what"; "when"; "where"; "which";
    "while"; "who"; "whom"; "why"; "will"; "with"; "you"; "your"; "yours";
    (* web chrome; "example" is the synthetic web's TLD, i.e. its "com" *)
    "www"; "http"; "https"; "html"; "htm"; "php"; "com"; "net"; "org";
    "index"; "page"; "home"; "example"; "articles";
  ]

let set =
  let tbl = Hashtbl.create 256 in
  List.iter (fun w -> Hashtbl.replace tbl w ()) words;
  tbl

let is_stopword w = Hashtbl.mem set w
