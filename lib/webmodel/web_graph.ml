module Prng = Provkit_util.Prng

type config = {
  n_topics : int;
  sites_per_topic : int;
  articles_per_site : int;
  vocab_size : int;
  title_terms : int;
  body_terms : int;
  links_per_article : int;
  cross_topic_link_prob : float;
  redirect_pages_per_topic : int;
  images_per_site : int;
  max_embeds_per_article : int;
  download_hosts_per_topic : int;
  files_per_download_host : int;
  ambiguous_terms : int;
}

let default_config =
  {
    n_topics = 12;
    sites_per_topic = 6;
    articles_per_site = 10;
    vocab_size = 120;
    title_terms = 4;
    body_terms = 30;
    links_per_article = 6;
    cross_topic_link_prob = 0.08;
    redirect_pages_per_topic = 4;
    images_per_site = 3;
    max_embeds_per_article = 2;
    download_hosts_per_topic = 1;
    files_per_download_host = 5;
    ambiguous_terms = 3;
  }

type ambiguity = {
  term : string;
  topic_a : int;
  topic_b : int;
  pages_a : int list;
  pages_b : int list;
}

type t = {
  config : config;
  topics : Topic.t array;
  mutable pages : Page_content.t array;
  per_topic_pages : int list array;  (* navigable, ascending *)
  per_topic_hubs : int list array;
  all_download_hosts : int list;
  ambiguity_list : ambiguity list;
}

(* Words that are naturally ambiguous across domains; the first is the
   paper's own example. *)
let ambiguous_palette =
  [| "rosebud"; "mercury"; "jaguar"; "phoenix"; "delta"; "apollo"; "orion"; "titan"; "atlas"; "polaris" |]

let topic_name i =
  let base = Topic.default_names.(i mod Array.length Topic.default_names) in
  if i < Array.length Topic.default_names then base
  else Printf.sprintf "%s%d" base (i / Array.length Topic.default_names)

(* A growable page store with ids assigned on append. *)
module Builder = struct
  type b = { mutable items : Page_content.t list; mutable count : int }

  let create () = { items = []; count = 0 }

  let append b ~url ~title ~body ~topic ~kind ?redirect_to () =
    let id = b.count in
    let page : Page_content.t =
      { id; url; title; body; topic; kind; links = [||]; redirect_to; embeds = [||] }
    in
    b.items <- page :: b.items;
    b.count <- id + 1;
    id

  let to_array b = Array.of_list (List.rev b.items)
end

let generate ?(config = default_config) ~seed () =
  let cfg = config in
  assert (cfg.n_topics >= 1 && cfg.sites_per_topic >= 1 && cfg.articles_per_site >= 1);
  let rng = Prng.create seed in
  let topic_rng = Prng.split rng in
  let link_rng = Prng.split rng in
  let content_rng = Prng.split rng in
  let topics =
    Array.init cfg.n_topics (fun i ->
        Topic.generate ~rng:topic_rng ~id:i ~name:(topic_name i)
          ~vocab_size:cfg.vocab_size)
  in
  let b = Builder.create () in
  let per_topic_articles = Array.make cfg.n_topics [] in
  let per_topic_hubs = Array.make cfg.n_topics [] in
  let per_topic_images = Array.make cfg.n_topics [] in
  let per_topic_redirects = Array.make cfg.n_topics [] in
  let per_topic_download_hosts = Array.make cfg.n_topics [] in
  let per_topic_files = Array.make cfg.n_topics [] in
  let site_articles : (int * int, int list) Hashtbl.t = Hashtbl.create 64 in
  let site_images : (int * int, int list) Hashtbl.t = Hashtbl.create 64 in
  let site_hub : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  (* Phase 1: page skeletons. *)
  for ti = 0 to cfg.n_topics - 1 do
    let topic = topics.(ti) in
    let tname = Topic.name topic in
    for si = 0 to cfg.sites_per_topic - 1 do
      let host = Printf.sprintf "site%d.%s.example" si tname in
      let hub_id =
        Builder.append b
          ~url:(Url.make ~path:[ "index" ] host)
          ~title:(Printf.sprintf "%s portal %s" tname (Topic.sample_term topic content_rng))
          ~body:(Topic.sample_terms topic content_rng cfg.body_terms)
          ~topic:ti ~kind:Page_content.Hub ()
      in
      per_topic_hubs.(ti) <- hub_id :: per_topic_hubs.(ti);
      Hashtbl.replace site_hub (ti, si) hub_id;
      let articles = ref [] in
      for ai = 0 to cfg.articles_per_site - 1 do
        let title =
          String.concat " " (Topic.sample_terms topic content_rng cfg.title_terms)
        in
        let id =
          Builder.append b
            ~url:(Url.make ~path:[ "articles"; Printf.sprintf "a%d" ai ] host)
            ~title
            ~body:(Topic.sample_terms topic content_rng cfg.body_terms)
            ~topic:ti ~kind:Page_content.Article ()
        in
        articles := id :: !articles;
        per_topic_articles.(ti) <- id :: per_topic_articles.(ti)
      done;
      Hashtbl.replace site_articles (ti, si) (List.rev !articles);
      let images = ref [] in
      for ii = 0 to cfg.images_per_site - 1 do
        let id =
          Builder.append b
            ~url:(Url.make ~path:[ "img"; Printf.sprintf "i%d.jpg" ii ] host)
            ~title:(Printf.sprintf "%s image %d" tname ii)
            ~body:[] ~topic:ti ~kind:Page_content.Image ()
        in
        images := id :: !images;
        per_topic_images.(ti) <- id :: per_topic_images.(ti)
      done;
      Hashtbl.replace site_images (ti, si) (List.rev !images)
    done;
    (* Download hosts and their files. *)
    for di = 0 to cfg.download_hosts_per_topic - 1 do
      let host = Printf.sprintf "files%d.%s.example" di tname in
      let host_id =
        Builder.append b
          ~url:(Url.make ~path:[ "downloads" ] host)
          ~title:(Printf.sprintf "%s downloads %s" tname (Topic.sample_term topic content_rng))
          ~body:(Topic.sample_terms topic content_rng (cfg.body_terms / 2))
          ~topic:ti ~kind:Page_content.Download_host ()
      in
      per_topic_download_hosts.(ti) <- host_id :: per_topic_download_hosts.(ti);
      for fi = 0 to cfg.files_per_download_host - 1 do
        let stem = Topic.sample_term topic content_rng in
        let fid =
          Builder.append b
            ~url:(Url.make ~path:[ "files"; Printf.sprintf "%s-%d.zip" stem fi ] host)
            ~title:(Printf.sprintf "%s archive %d" stem fi)
            ~body:[] ~topic:ti ~kind:Page_content.File ()
        in
        per_topic_files.(ti) <- fid :: per_topic_files.(ti)
      done
    done
  done;
  (* Phase 2: redirect pages (targets chosen among existing articles). *)
  for ti = 0 to cfg.n_topics - 1 do
    let tname = Topic.name topics.(ti) in
    let articles = Array.of_list per_topic_articles.(ti) in
    for ri = 0 to cfg.redirect_pages_per_topic - 1 do
      if Array.length articles > 0 then begin
        let target = Prng.pick link_rng articles in
        let id =
          Builder.append b
            ~url:(Url.make
                    ~path:[ "track"; Printf.sprintf "r%d" ri ]
                    ~query:[ ("id", Printf.sprintf "%06x" (Prng.int link_rng 0xffffff)) ]
                    (Printf.sprintf "redir.%s.example" tname))
            ~title:"" ~body:[] ~topic:ti ~kind:Page_content.Redirect
            ~redirect_to:target ()
        in
        per_topic_redirects.(ti) <- id :: per_topic_redirects.(ti)
      end
    done
  done;
  let pages = Builder.to_array b in
  (* Phase 3: link structure. *)
  let pick_same_topic ti =
    let articles = Array.of_list per_topic_articles.(ti) in
    let hubs = Array.of_list per_topic_hubs.(ti) in
    (* Mild preferential attachment: 35% of intra-topic links go to hubs,
       which concentrates in-degree the way real sites do. *)
    if Array.length hubs > 0 && Prng.bernoulli link_rng 0.35 then Prng.pick link_rng hubs
    else Prng.pick link_rng articles
  in
  let pick_target ti =
    if cfg.n_topics > 1 && Prng.bernoulli link_rng cfg.cross_topic_link_prob then begin
      let other = (ti + 1 + Prng.int link_rng (cfg.n_topics - 1)) mod cfg.n_topics in
      pick_same_topic other
    end
    else pick_same_topic ti
  in
  let with_links id links embeds =
    let p = pages.(id) in
    pages.(id) <- { p with Page_content.links = Array.of_list links; embeds = Array.of_list embeds }
  in
  for ti = 0 to cfg.n_topics - 1 do
    let redirects = Array.of_list per_topic_redirects.(ti) in
    let download_hosts = Array.of_list per_topic_download_hosts.(ti) in
    for si = 0 to cfg.sites_per_topic - 1 do
      let articles = Hashtbl.find site_articles (ti, si) in
      let images = Array.of_list (Hashtbl.find site_images (ti, si)) in
      (* Hub: all site articles + another same-topic hub + one download host. *)
      let hub = Hashtbl.find site_hub (ti, si) in
      let other_hubs =
        List.filter (fun h -> h <> hub) per_topic_hubs.(ti)
      in
      let hub_links =
        articles
        @ (match other_hubs with [] -> [] | h :: _ -> [ h ])
        @ (if Array.length download_hosts > 0 then [ download_hosts.(0) ] else [])
      in
      with_links hub hub_links [];
      List.iter
        (fun aid ->
          let n = cfg.links_per_article in
          let raw = List.init n (fun _ -> pick_target ti) in
          (* Route some links through tracking redirects, and make sure
             download hosts are reachable from ordinary browsing. *)
          let routed =
            List.map
              (fun target ->
                if Array.length redirects > 0 && Prng.bernoulli link_rng 0.10 then
                  Prng.pick link_rng redirects
                else if Array.length download_hosts > 0 && Prng.bernoulli link_rng 0.08
                then Prng.pick link_rng download_hosts
                else target)
              raw
          in
          let dedup = List.sort_uniq Int.compare (List.filter (fun l -> l <> aid) routed) in
          let n_embeds =
            if Array.length images = 0 then 0 else Prng.int link_rng (cfg.max_embeds_per_article + 1)
          in
          let embeds =
            Prng.sample_without_replacement link_rng n_embeds images
          in
          with_links aid dedup embeds)
        articles
    done;
    (* Download hosts link to their files. *)
    List.iter
      (fun hid ->
        let host = pages.(hid).Page_content.url.Url.host in
        let files =
          List.filter (fun fid -> pages.(fid).Page_content.url.Url.host = host) per_topic_files.(ti)
        in
        with_links hid (List.sort Int.compare files) [])
      per_topic_download_hosts.(ti)
  done;
  (* Phase 4: planted ambiguous terms. *)
  let ambiguity_list = ref [] in
  let plant_count = 4 in
  for i = 0 to cfg.ambiguous_terms - 1 do
    if cfg.n_topics >= 2 then begin
      let base = ambiguous_palette.(i mod Array.length ambiguous_palette) in
      let term = if i < Array.length ambiguous_palette then base else Printf.sprintf "%s%d" base i in
      let topic_a = 2 * i mod cfg.n_topics in
      let topic_b = ((2 * i) + 1) mod cfg.n_topics in
      if topic_a <> topic_b then begin
        let plant ti =
          let articles = Array.of_list per_topic_articles.(ti) in
          let chosen =
            Prng.sample_without_replacement content_rng plant_count articles
          in
          List.iter
            (fun pid ->
              let p = pages.(pid) in
              pages.(pid) <-
                {
                  p with
                  Page_content.title = term ^ " " ^ p.Page_content.title;
                  body = term :: term :: p.Page_content.body;
                })
            chosen;
          Topic.add_term topics.(ti) term;
          List.sort Int.compare chosen
        in
        let pages_a = plant topic_a in
        let pages_b = plant topic_b in
        ambiguity_list := { term; topic_a; topic_b; pages_a; pages_b } :: !ambiguity_list
      end
    end
  done;
  let navigable ti =
    List.sort Int.compare
      (per_topic_hubs.(ti) @ per_topic_articles.(ti) @ per_topic_download_hosts.(ti))
  in
  {
    config = cfg;
    topics;
    pages;
    per_topic_pages = Array.init cfg.n_topics navigable;
    per_topic_hubs = Array.map (List.sort Int.compare) (Array.map (fun l -> l) per_topic_hubs);
    all_download_hosts =
      List.sort Int.compare (Array.to_list per_topic_download_hosts |> List.concat);
    ambiguity_list = List.rev !ambiguity_list;
  }

let config t = t.config
let page_count t = Array.length t.pages

let page t id =
  if id < 0 || id >= Array.length t.pages then
    invalid_arg (Printf.sprintf "Web_graph.page: id %d out of range" id)
  else t.pages.(id)

let pages t = t.pages
let topic_count t = Array.length t.topics
let topic t i = t.topics.(i)

let pages_of_topic t ti = t.per_topic_pages.(ti)
let hubs_of_topic t ti = t.per_topic_hubs.(ti)
let download_hosts t = t.all_download_hosts
let ambiguities t = t.ambiguity_list

let resolve_redirects t id =
  let rec follow acc id =
    let p = page t id in
    match p.Page_content.redirect_to with
    | Some next when not (List.mem next acc) -> follow (id :: acc) next
    | _ -> List.rev (id :: acc)
  in
  follow [] id
