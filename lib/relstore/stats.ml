module Obs = Provkit_obs

type histogram = {
  hb_min : Value.t;
  hb_bounds : Value.t array;
  hb_rows : int;
}

type col_stats = {
  cs_column : string;
  cs_nulls : int;
  cs_null_frac : float;
  cs_min : Value.t;
  cs_max : Value.t;
  cs_ndv : float;
  cs_histogram : histogram option;
}

type table_stats = {
  ts_table : string;
  ts_uid : int;
  ts_epoch : int;
  ts_rows : int;
  ts_sampled : int;
  ts_columns : (string * col_stats) list;
}

let m_analyzes = Obs.Metrics.counter Obs.Names.stats_analyzes
let h_analyze_ns = Obs.Metrics.histogram Obs.Names.stats_analyze_ns

(* --- collection --- *)

let equi_depth ~buckets values =
  let n = Array.length values in
  if n = 0 then None
  else begin
    Array.sort Value.compare values;
    let b = min buckets n in
    (* Bound i is the value at the end of the i-th depth-sized run; a
       value occupying many runs repeats across adjacent bounds, which
       is exactly the signal the equality estimator reads. *)
    let bounds =
      Array.init b (fun i ->
          let idx = (((i + 1) * n) / b) - 1 in
          values.(max 0 (min (n - 1) idx)))
    in
    Some { hb_min = values.(0); hb_bounds = bounds; hb_rows = n }
  end

(* [iter_rows f] applies [f] to each of the [rows] rows summarized. *)
let summarize_column ~buckets ~indexed ~rows schema iter_rows col =
  let ci = Schema.column_index schema col in
  let nulls = ref 0 in
  let vmin = ref Value.Null and vmax = ref Value.Null in
  let hll = Obs.Hyperloglog.create () in
  (* An indexed column's non-null values fill [non_null] from the end,
     so its tail holds them in reverse row order: [Array.sort] is not
     stable, and that is the order the histogram has always sorted. *)
  let non_null = if indexed then Array.make rows Value.Null else [||] in
  let kept = ref 0 in
  let examined = ref 0 in
  let buf = Buffer.create 32 in
  iter_rows
    (fun (row : Row.t) ->
      incr examined;
      let v = row.(ci) in
      if Value.is_null v then incr nulls
      else begin
        if Value.is_null !vmin || Value.compare v !vmin < 0 then vmin := v;
        if Value.is_null !vmax || Value.compare v !vmax > 0 then vmax := v;
        Buffer.clear buf;
        Codec.write_value buf v;
        Obs.Hyperloglog.add_buffer hll buf;
        if indexed then begin
          incr kept;
          non_null.(rows - !kept) <- v
        end
      end);
  let examined = !examined in
  {
    cs_column = col;
    cs_nulls = !nulls;
    cs_null_frac = (if examined = 0 then 0.0 else float_of_int !nulls /. float_of_int examined);
    cs_min = !vmin;
    cs_max = !vmax;
    cs_ndv = (if examined = !nulls then 0.0 else Float.max 1.0 (Obs.Hyperloglog.estimate hll));
    cs_histogram =
      (if indexed then equi_depth ~buckets (Array.sub non_null (rows - !kept) !kept) else None);
  }

let catalog : (int, table_stats) Hashtbl.t = Hashtbl.create 16

(* Serializes structural access to [catalog]: under provd the analyze
   job runs on a background domain while planner lookups come from
   reader domains, and concurrent Hashtbl mutation is memory-unsafe. *)
let catalog_lock = Mutex.create ()

let analyze ?sample ?(buckets = 32) ?(seed = 42) table =
  let t0 = Provkit_util.Timing.now_ns () in
  let stats =
    Obs.Trace.with_span Obs.Names.span_stats_analyze
      ~attrs:[ ("table", Table.name table) ]
      (fun () ->
        let schema = Table.schema table in
        let total = Table.row_count table in
        (* A full analyze walks the table in place, once per column: a
           list of every row would cost several words per row, and under
           provd that garbage lands while readers wait on the collector. *)
        let sampled, iter_rows =
          match sample with
          | Some n when n < total ->
            let picked =
              Provkit_util.Prng.sample_without_replacement
                (Provkit_util.Prng.create seed)
                n
                (Array.of_list (List.map snd (Table.rows table)))
            in
            (List.length picked, fun f -> List.iter f picked)
          | _ -> (total, fun f -> Table.iter table (fun _ row -> f row))
        in
        let indexed_cols =
          List.concat_map Index.column_names (Table.indexes table)
        in
        let columns =
          Array.to_list (Schema.columns schema)
          |> List.map (fun (c : Column.t) ->
                 ( c.Column.name,
                   summarize_column ~buckets
                     ~indexed:(List.mem c.Column.name indexed_cols)
                     ~rows:sampled schema iter_rows c.Column.name ))
        in
        {
          ts_table = Table.name table;
          ts_uid = Table.uid table;
          ts_epoch = Table.epoch table;
          ts_rows = total;
          ts_sampled = sampled;
          ts_columns = columns;
        })
  in
  Mutex.protect catalog_lock (fun () -> Hashtbl.replace catalog stats.ts_uid stats);
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_analyzes;
    Obs.Metrics.observe h_analyze_ns
      (Int64.to_int (Int64.sub (Provkit_util.Timing.now_ns ()) t0))
  end;
  stats

let analyze_database ?sample ?buckets ?seed db =
  List.map (analyze ?sample ?buckets ?seed) (Database.tables db)

let lookup table =
  Mutex.protect catalog_lock (fun () -> Hashtbl.find_opt catalog (Table.uid table))

let fresh table =
  match lookup table with
  | Some s when s.ts_epoch = Table.epoch table -> Some s
  | _ -> None

let invalidate table =
  Mutex.protect catalog_lock (fun () -> Hashtbl.remove catalog (Table.uid table))

let clear () = Mutex.protect catalog_lock (fun () -> Hashtbl.reset catalog)

(* The freshness health check: the planner only benefits from the
   catalog while every table's entry matches its current epoch.  A
   stale or missing entry is not data loss — the planner falls back to
   heuristics — so the worst this check reports is Degraded. *)
let freshness_check db () =
  let tables = Database.tables db in
  let missing, stale =
    List.fold_left
      (fun (missing, stale) t ->
        match lookup t with
        | None -> (Table.name t :: missing, stale)
        | Some s when s.ts_epoch = Table.epoch t -> (missing, stale)
        | Some _ -> (missing, Table.name t :: stale))
      ([], []) tables
  in
  match (List.rev missing, List.rev stale) with
  | [], [] ->
    (Obs.Health.Ok, Printf.sprintf "all %d table(s) analyzed and fresh" (List.length tables))
  | missing, stale ->
    let part label = function
      | [] -> []
      | names -> [ Printf.sprintf "%s: %s" label (String.concat ", " names) ]
    in
    ( Obs.Health.Degraded,
      String.concat "; " (part "never analyzed" missing @ part "stale" stale) )

let register_health_check db =
  Obs.Health.register Obs.Names.health_stats_fresh (freshness_check db)

(* --- estimation --- *)

let default_eq_sel = 0.1
let default_range_sel = 0.25
let default_like_sel = 0.1
let default_custom_sel = 1.0 /. 3.0

let col ts name = List.assoc_opt name ts.ts_columns

let non_null_frac cs = 1.0 -. cs.cs_null_frac

let as_real v =
  match v with Value.Int i -> Some (float_of_int i) | Value.Real r -> Some r | _ -> None

(* Fraction of a bucket [lo_b, hi_b] lying at or below [v]: numeric
   bounds interpolate linearly, anything else splits the bucket. *)
let within_bucket lo_b hi_b v =
  match (as_real lo_b, as_real hi_b, as_real v) with
  | Some lo, Some hi, Some x when hi > lo -> Float.max 0.0 (Float.min 1.0 ((x -. lo) /. (hi -. lo)))
  | _ -> 0.5

(* Fraction of the histogram's (non-null) values <= v, approximately. *)
let position h v =
  let b = Array.length h.hb_bounds in
  if b = 0 then 0.0
  else if Value.compare v h.hb_min < 0 then 0.0
  else if Value.compare v h.hb_bounds.(b - 1) >= 0 then 1.0
  else begin
    let i = ref 0 in
    while Value.compare h.hb_bounds.(!i) v < 0 do
      incr i
    done;
    let lo_b = if !i = 0 then h.hb_min else h.hb_bounds.(!i - 1) in
    (float_of_int !i +. within_bucket lo_b h.hb_bounds.(!i) v) /. float_of_int b
  end

(* Equality selectivity among the column's non-null values. *)
let eq_frac cs v =
  match cs.cs_histogram with
  | Some h when Array.length h.hb_bounds > 0 ->
    let b = Array.length h.hb_bounds in
    let depth = 1.0 /. float_of_int b in
    if Value.compare v h.hb_min < 0 || Value.compare v h.hb_bounds.(b - 1) > 0 then
      (* Out of the summarized range: call it half a row. *)
      0.5 /. float_of_int (max 1 h.hb_rows)
    else begin
      (* A value frequent enough to fill whole buckets repeats across
         adjacent bounds; count the spanned runs. *)
      let full = ref 0 in
      for i = 0 to b - 1 do
        let lo_b = if i = 0 then h.hb_min else h.hb_bounds.(i - 1) in
        if Value.equal lo_b v && Value.equal h.hb_bounds.(i) v then incr full
      done;
      if !full > 0 then float_of_int (!full + 1) *. depth
      else Float.min depth (1.0 /. Float.max 1.0 cs.cs_ndv)
    end
  | _ -> 1.0 /. Float.max 1.0 cs.cs_ndv

(* Range selectivity among non-null values, inclusive option bounds. *)
let range_frac cs lo hi =
  match cs.cs_histogram with
  | Some h when Array.length h.hb_bounds > 0 ->
    let pos_hi = match hi with None -> 1.0 | Some v -> position h v in
    let pos_lo = match lo with None -> 0.0 | Some v -> position h v in
    let base = Float.max 0.0 (pos_hi -. pos_lo) in
    (* An inclusive range never selects less than a point does. *)
    let floor_eq =
      match (lo, hi) with
      | Some a, Some b when Value.compare a b <= 0 -> eq_frac cs a
      | _ -> 0.0
    in
    Float.max base floor_eq
  | _ -> begin
    (* No histogram: interpolate against min/max when numeric. *)
    match (as_real cs.cs_min, as_real cs.cs_max) with
    | Some mn, Some mx when mx > mn ->
      let clamp x = Float.max mn (Float.min mx x) in
      let lo' = match Option.bind lo as_real with Some x -> clamp x | None -> mn in
      let hi' = match Option.bind hi as_real with Some x -> clamp x | None -> mx in
      Float.max 0.0 ((hi' -. lo') /. (mx -. mn))
    | _ -> default_range_sel
  end

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let sel_eq ts name v =
  if Value.is_null v then 0.0
  else
    match col ts name with
    | None -> default_eq_sel
    | Some cs -> clamp01 (eq_frac cs v *. non_null_frac cs)

let sel_range ts name lo hi =
  match col ts name with
  | None -> default_range_sel
  | Some cs -> clamp01 (range_frac cs lo hi *. non_null_frac cs)

let rec selectivity ts (p : Predicate.t) =
  let s =
    match p with
    | Predicate.True -> 1.0
    | Predicate.Eq (name, v) -> sel_eq ts name v
    | Predicate.Cmp (Predicate.Ne, name, v) -> 1.0 -. sel_eq ts name v
    | Predicate.Cmp (Predicate.Le, name, v) -> sel_range ts name None (Some v)
    | Predicate.Cmp (Predicate.Lt, name, v) ->
      Float.max 0.0 (sel_range ts name None (Some v) -. sel_eq ts name v)
    | Predicate.Cmp (Predicate.Ge, name, v) -> sel_range ts name (Some v) None
    | Predicate.Cmp (Predicate.Gt, name, v) ->
      Float.max 0.0 (sel_range ts name (Some v) None -. sel_eq ts name v)
    | Predicate.Between (name, lo, hi) -> sel_range ts name (Some lo) (Some hi)
    | Predicate.Is_null name -> begin
      match col ts name with None -> default_eq_sel | Some cs -> cs.cs_null_frac
    end
    | Predicate.Not_null name -> begin
      match col ts name with None -> 1.0 -. default_eq_sel | Some cs -> non_null_frac cs
    end
    | Predicate.Like (name, _) -> begin
      match col ts name with
      | None -> default_like_sel
      | Some cs -> default_like_sel *. non_null_frac cs
    end
    | Predicate.And ps -> List.fold_left (fun acc q -> acc *. selectivity ts q) 1.0 ps
    | Predicate.Or ps ->
      1.0 -. List.fold_left (fun acc q -> acc *. (1.0 -. selectivity ts q)) 1.0 ps
    | Predicate.Not q -> 1.0 -. selectivity ts q
    | Predicate.Custom _ -> default_custom_sel
  in
  clamp01 s

let estimate_rows ts p = float_of_int ts.ts_rows *. selectivity ts p
let estimate_eq ts name v = float_of_int ts.ts_rows *. sel_eq ts name v
let estimate_range ts name lo hi = float_of_int ts.ts_rows *. sel_range ts name lo hi

(* --- rendering --- *)

let json_value v =
  match v with
  | Value.Null -> "null"
  | Value.Int i -> string_of_int i
  | Value.Real r -> Printf.sprintf "%g" r
  | Value.Bool b -> string_of_bool b
  | Value.Text _ | Value.Blob _ ->
    Printf.sprintf "\"%s\"" (Obs.Metrics.json_escape (Value.to_string v))

let to_json ts =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"table\":\"%s\",\"uid\":%d,\"epoch\":%d,\"rows\":%d,\"sampled\":%d,\"columns\":["
       (Obs.Metrics.json_escape ts.ts_table)
       ts.ts_uid ts.ts_epoch ts.ts_rows ts.ts_sampled);
  List.iteri
    (fun i (_, cs) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"column\":\"%s\",\"nulls\":%d,\"null_frac\":%.4f,\"min\":%s,\"max\":%s,\"ndv\":%.1f"
           (Obs.Metrics.json_escape cs.cs_column)
           cs.cs_nulls cs.cs_null_frac (json_value cs.cs_min) (json_value cs.cs_max)
           cs.cs_ndv);
      (match cs.cs_histogram with
      | None -> ()
      | Some h ->
        Buffer.add_string buf
          (Printf.sprintf ",\"histogram\":{\"rows\":%d,\"bounds\":[" h.hb_rows);
        Array.iteri
          (fun j b ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (json_value b))
          h.hb_bounds;
        Buffer.add_string buf "]}");
      Buffer.add_char buf '}')
    ts.ts_columns;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let render ts =
  let header = [ "column"; "nulls"; "null%"; "min"; "max"; "ndv"; "histogram" ] in
  let rows =
    List.map
      (fun (_, cs) ->
        [
          cs.cs_column;
          string_of_int cs.cs_nulls;
          Printf.sprintf "%.1f" (cs.cs_null_frac *. 100.0);
          Value.to_string cs.cs_min;
          Value.to_string cs.cs_max;
          Printf.sprintf "%.0f" cs.cs_ndv;
          (match cs.cs_histogram with
          | None -> "-"
          | Some h -> Printf.sprintf "%d buckets/%d rows" (Array.length h.hb_bounds) h.hb_rows);
        ])
      ts.ts_columns
  in
  let title =
    Printf.sprintf "%s: %d rows (%d sampled), epoch %d\n" ts.ts_table ts.ts_rows
      ts.ts_sampled ts.ts_epoch
  in
  title
  ^ Provkit_util.Table_fmt.render
      ~aligns:
        Provkit_util.Table_fmt.[ Left; Right; Right; Right; Right; Right; Left ]
      ~header rows
