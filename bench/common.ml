(* Shared infrastructure for the benchmark harness: document cache,
   query definitions, timing and table printing. *)

module Index = Wp_xml.Index

(* The paper's queries (Section 6.2.1). *)
let q1 = "//item[./description/parlist]"
let q2 = "//item[./description/parlist and ./mailbox/mail/text]"

let q3 =
  "//item[./mailbox/mail/text[./bold and ./keyword] and ./name and \
   ./incategory]"

let queries = [ ("Q1", q1); ("Q2", q2); ("Q3", q3) ]

(* Ad-hoc tree patterns of 2-6 nodes over the XMark schema, with child
   and descendant edges and, in about one in four, a keyword-equality
   content predicate — the shape of an exploratory session whose every
   query misses the plan cache.  Some root at nesting tags (parlist,
   listitem, text), whose idf sources overlap. *)
let adhoc_patterns =
  [
    "//item[./name]";
    "//item[./location and ./quantity]";
    "//item[./payment and ./shipping and ./name]";
    "//item[./incategory and ./mailbox/mail]";
    "//item[./mailbox/mail[./from and ./to]]";
    "//item[./mailbox/mail/date and ./location]";
    "//item[./description/text[./bold]]";
    "//item[./description//listitem and ./name]";
    "//item[.//keyword and ./payment]";
    "//item[./description/parlist/listitem/text]";
    "//item[./mailbox//text[./emph] and ./quantity]";
    "//item[./description[./text and ./parlist] and ./shipping]";
    "//item[.//emph and .//bold and ./incategory]";
    "//item[./mailbox/mail[./text/keyword and ./date] and ./name]";
    "//item[./location and ./quantity and ./payment and ./shipping]";
    "//item[./description//text[./keyword] and ./mailbox]";
    "//item[.//listitem[./text] and ./location]";
    "//item[./mailbox/mail/text[./keyword = 'rare']]";
    "//item[.//keyword = 'antique' and ./name]";
    "//item[./description//keyword = 'mint' and ./incategory]";
    "//item[./mailbox/mail[./text/keyword = 'sealed' and ./from]]";
    "//item[./mailbox/mail/text[./keyword = 'signed' and ./bold] and \
     ./location]";
    "//item[.//text[./keyword = 'limited'] and ./payment]";
    "//mail[./from]";
    "//mail[./to and ./date]";
    "//mail[./text[./bold and ./emph]]";
    "//mail[./text/keyword and ./from and ./to]";
    "//mail[.//emph and ./date]";
    "//mail[./text[./keyword = 'original']]";
    "//mail[./text[./keyword = 'restored' and ./bold] and ./date]";
    "//mail[.//keyword = 'pristine' and ./to]";
    "//mailbox[./mail/text]";
    "//mailbox[./mail[./from and ./date]]";
    "//mailbox[.//keyword = 'collectible']";
    "//person[./name]";
    "//person[./address/city]";
    "//person[./address[./city and ./country] and ./emailaddress]";
    "//person[.//country and ./name]";
    "//address[./city and ./country]";
    "//description[./parlist]";
    "//description[./text/bold]";
    "//description[.//keyword = 'handmade']";
    "//parlist[./listitem/text]";
    "//parlist[./listitem[./text/keyword] and .//emph]";
    "//parlist[.//parlist]";
    "//listitem[./text[./bold]]";
    "//listitem[.//listitem and ./text]";
    "//listitem[./parlist/listitem/text/keyword = 'imported']";
    "//text[./keyword and ./bold]";
    "//text[./emph and ./keyword = 'certified']";
  ]

type scale = {
  label : string;
  sizes : (string * int) list;  (** the 1Mb/10Mb/50Mb sweep *)
  default_size : int;  (** the Table 1 default (10Mb) *)
  default_k : int;  (** 15 *)
  ks : int list;  (** 3, 15, 75 *)
}

(* Paper-faithful scale and a fast one for smoke runs. *)
let full_scale =
  {
    label = "paper";
    sizes = [ ("1M", 1_000_000); ("10M", 10_000_000); ("50M", 50_000_000) ];
    default_size = 10_000_000;
    default_k = 15;
    ks = [ 3; 15; 75 ];
  }

let quick_scale =
  {
    label = "quick";
    sizes = [ ("0.2M", 200_000); ("1M", 1_000_000); ("5M", 5_000_000) ];
    default_size = 1_000_000;
    default_k = 15;
    ks = [ 3; 15; 75 ];
  }

let doc_cache : (int, Index.t) Hashtbl.t = Hashtbl.create 8

let index_for ?(seed = 42) target_bytes =
  match Hashtbl.find_opt doc_cache target_bytes with
  | Some idx -> idx
  | None ->
      let t0 = Whirlpool.Clock.now () in
      let doc = Wp_xmark.Generator.generate_doc ~seed ~target_bytes () in
      let idx = Index.build doc in
      Printf.printf "  [generated %d-byte document: %d nodes, %.1fs]\n%!"
        target_bytes (Wp_xml.Doc.size doc)
        (Whirlpool.Clock.now () -. t0);
      Hashtbl.add doc_cache target_bytes idx;
      idx

let plan_cache : (int * string * string, Whirlpool.Plan.t) Hashtbl.t =
  Hashtbl.create 16

let plan_for ?(normalization = Wp_score.Score_table.Sparse) ~size query =
  let key =
    ( size,
      query,
      Format.asprintf "%a" Wp_score.Score_table.pp_normalization normalization
    )
  in
  match Hashtbl.find_opt plan_cache key with
  | Some p -> p
  | None ->
      let idx = index_for size in
      let pattern = Wp_pattern.Xpath_parser.parse query in
      let p =
        Whirlpool.Run.compile ~normalization idx pattern
      in
      Hashtbl.add plan_cache key p;
      p

(* Drop cached documents and plans (and compact) — the Bechamel
   micro-benchmarks stabilize the GC between samples, which only stays
   cheap on a small live heap. *)
let clear_caches () =
  Hashtbl.reset doc_cache;
  Hashtbl.reset plan_cache;
  Gc.compact ()

(* Monotonic (NTP-step-proof) wall clock shared with the engines. *)
let time f =
  let t0 = Whirlpool.Clock.now () in
  let r = f () in
  (r, Whirlpool.Clock.now () -. t0)

(* The median and the interquartile range of 21 timings of [f], in
   milliseconds, after one warm-up call and a full major collection, so
   that the samples do not pay for earlier garbage (generating the
   document, say). *)
let median_iqr_ms f =
  ignore (f ());
  Gc.full_major ();
  let samples = Array.init 21 (fun _ -> snd (time f) *. 1e3) in
  Array.sort Float.compare samples;
  (samples.(10), samples.(15) -. samples.(5))

(* Optional CSV mirroring: when [csv_dir] is set, every exhibit's rows
   are also appended to <dir>/<exhibit-slug>.csv. *)
let csv_dir : string option ref = ref None
let csv_channel : out_channel option ref = ref None

let close_csv () =
  Option.iter close_out_noerr !csv_channel;
  csv_channel := None

let slug title =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c
      else if c >= 'A' && c <= 'Z' then Char.lowercase_ascii c
      else '-')
    title

let header title =
  let line = String.make (String.length title) '=' in
  Printf.printf "\n%s\n%s\n" title line;
  close_csv ();
  Option.iter
    (fun dir ->
      let name =
        match String.index_opt title ':' with
        | Some i -> String.sub title 0 i
        | None -> title
      in
      csv_channel := Some (open_out (Filename.concat dir (slug name ^ ".csv"))))
    !csv_dir

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let section s = Printf.printf "\n-- %s --\n" s

(* Fixed-width row printing (mirrored to the CSV file when active). *)
let print_row widths cells =
  List.iter2 (fun w c -> Printf.printf "%-*s" w c) widths cells;
  print_newline ();
  Option.iter
    (fun oc ->
      output_string oc
        (String.concat "," (List.map (fun c -> csv_escape (String.trim c)) cells));
      output_char oc '\n')
    !csv_channel

let fsec dt = Printf.sprintf "%.4fs" dt
let fms_iqr (ms, iqr) = Printf.sprintf "%.3f (%.3f)" ms iqr
let fint = string_of_int
let fratio r = Printf.sprintf "%.2fx" r

(* Measure the per-call cost of an adaptive routing decision and of a
   static lookup, for the Figure 8 cost model. *)
let measure_decision_costs plan =
  let stats = Whirlpool.Stats.create () in
  let next_id =
    let n = ref 0 in
    fun () -> incr n; !n
  in
  let seeds = Whirlpool.Seeds.create plan stats in
  let empty = Whirlpool.Topk_set.create ~k:1 ~admit_partial:true () in
  let pm = Option.get (Whirlpool.Seeds.open_next seeds empty ~next_id) in
  let iters = 20_000 in
  let time_routing routing =
    let t0 = Whirlpool.Clock.now () in
    for _ = 1 to iters do
      ignore
        (Whirlpool.Strategy.choose_next routing plan ~threshold:1.0 pm)
    done;
    (Whirlpool.Clock.now () -. t0) /. float_of_int iters
  in
  let adaptive = time_routing Whirlpool.Strategy.Min_alive in
  let static =
    time_routing
      (Whirlpool.Strategy.Static (Whirlpool.Strategy.default_static_order plan))
  in
  (adaptive, static)
