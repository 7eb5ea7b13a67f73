module Prng = Provkit_util.Prng
module Zipf = Provkit_util.Zipf

type t = {
  id : int;
  name : string;
  mutable vocab : string array;
  mutable zipf : Zipf.t;
}

let onsets = [| "b"; "d"; "f"; "g"; "k"; "l"; "m"; "n"; "p"; "r"; "s"; "t"; "v"; "z"; "ch"; "sh"; "br"; "tr"; "st" |]
let nuclei = [| "a"; "e"; "i"; "o"; "u"; "ai"; "ea"; "ou"; "io" |]
let codas = [| ""; "n"; "r"; "s"; "l"; "t"; "nd"; "rm"; "st" |]

let syllable rng =
  Prng.pick rng onsets ^ Prng.pick rng nuclei ^ Prng.pick rng codas

let word rng =
  let n = Prng.int_in rng 2 3 in
  String.concat "" (List.init n (fun _ -> syllable rng))

let generate ~rng ~id ~name ~vocab_size =
  assert (vocab_size >= 1);
  let seen = Hashtbl.create vocab_size in
  Hashtbl.replace seen name ();
  let rec fresh () =
    let w = word rng in
    if Hashtbl.mem seen w then fresh ()
    else begin
      Hashtbl.replace seen w ();
      w
    end
  in
  (* The topic name leads the vocabulary so it is also the most frequent
     term, which matches how real topical sites mention their subject. *)
  let vocab = Array.init vocab_size (fun i -> if i = 0 then name else fresh ()) in
  { id; name; vocab; zipf = Zipf.create ~n:vocab_size ~s:1.0 }

let id t = t.id
let name t = t.name

let sample_term t rng = t.vocab.(Zipf.sample t.zipf rng)
let sample_terms t rng n = List.init n (fun _ -> sample_term t rng)

let add_term t term =
  t.vocab <- Array.append t.vocab [| term |];
  t.zipf <- Zipf.create ~n:(Array.length t.vocab) ~s:1.0

let default_names =
  [|
    "wine"; "gardening"; "film"; "travel"; "cooking"; "music"; "soccer";
    "astronomy"; "sailing"; "photography"; "chess"; "poetry"; "cycling";
    "fishing"; "painting"; "history"; "weather"; "finance"; "health";
    "software"; "camping"; "birds"; "coffee"; "architecture"; "theatre";
    "climbing"; "knitting"; "robotics"; "geology"; "opera";
  |]
