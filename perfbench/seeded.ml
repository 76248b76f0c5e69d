(* Seeded inputs: the corpus and the request stream of each workload.

   Everything here is a pure function of (workload, seed).  The server
   only ever sees the files [write_corpus] produces and the requests
   [stream] yields; the seed itself never crosses the process
   boundary. *)

type workload = Warm_repeat | Adhoc_cold

let workloads = [ Warm_repeat; Adhoc_cold ]

let workload_to_string = function
  | Warm_repeat -> "warm-repeat"
  | Adhoc_cold -> "adhoc-cold"

let workload_of_string s =
  List.find_opt (fun w -> workload_to_string w = s) workloads

(* How the documents reach the server: prebuilt [.wpidx] indexes are
   memory-mapped at boot, raw XML is parsed and indexed at boot. *)
type format = Wpidx | Xml

type shape = {
  docs : int;
  doc_bytes : int;
  format : format;
  clients : int;  (** closed-loop client connections *)
  workers : int;  (** server pool size *)
}

(* Both workloads pin the pool to one worker: on a 2-core machine a
   second worker domain made run-to-run throughput spread ~8x wider. *)
let shape = function
  | Warm_repeat ->
      { docs = 4; doc_bytes = 1_000_000; format = Wpidx; clients = 2; workers = 1 }
  | Adhoc_cold ->
      { docs = 2; doc_bytes = 2_000_000; format = Xml; clients = 1; workers = 1 }

let extension = function Wpidx -> ".wpidx" | Xml -> ".xml"

let doc_name w i = Printf.sprintf "d%d%s" i (extension (shape w).format)

type request = {
  query : string;
  doc : string option;  (** [None] = merged over the whole corpus *)
  k : int;
  algo : string option;  (** [None] = the server default, whirlpool-s *)
}

(* Independent, reproducible generator streams per purpose. *)
let rng ~seed ~purpose = Random.State.make [| seed; Hashtbl.hash purpose |]

(* --- corpus --- *)

type doc = { name : string; tree : Wp_xml.Tree.t }

let corpus w ~seed =
  let s = shape w in
  let r = rng ~seed ~purpose:("corpus/" ^ workload_to_string w) in
  List.init s.docs (fun i ->
      let doc_seed = Random.State.bits r in
      (* Documents differ in size by design: [Dataguide.of_index] memoizes
         guides in a structural hash table over [Doc.t], and comparing two
         memory-mapped documents of equal node count raises
         [Invalid_argument "compare: functional value"].  Two same-size
         mapped documents would fail every twig request on them. *)
      let target_bytes = s.doc_bytes + (i * 40_000) in
      {
        name = doc_name w i;
        tree = Wp_xmark.Generator.generate ~seed:doc_seed ~target_bytes ();
      })

let corpus_digest docs =
  let b = Buffer.create 4096 in
  List.iter
    (fun d ->
      Buffer.add_string b d.name;
      Buffer.add_char b '\000';
      Buffer.add_string b (Digest.string (Wp_xml.Printer.tree_to_string d.tree)))
    docs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Write every document in [format] into [dir]; the file basename is the
   catalog name clients address. *)
let write_corpus ~format ~dir docs =
  List.iter
    (fun d ->
      let base = Filename.remove_extension d.name ^ extension format in
      let path = Filename.concat dir base in
      match format with
      | Xml -> Out_channel.with_open_bin path (fun oc -> Wp_xml.Printer.to_channel oc d.tree)
      | Wpidx -> ignore (Wp_storage.Index_file.write path (Wp_xml.Doc.of_tree d.tree)))
    docs

(* --- warm-repeat requests --- *)

(* The dashboard set: the paper's Q1-Q3, a one-branch query, the
   content query QC, and three more shapes; the last two run on the
   twig backend so the warm path also covers the dataguide.  Each is
   issued merged and against one document: 8 texts x 4 documents = 32
   plans, well inside the 128-entry plan cache. *)
let warm_queries =
  [
    ("//item[./description/parlist]", None);
    ("//item[./description/parlist and ./mailbox/mail/text]", None);
    ( "//item[./mailbox/mail/text[./bold and ./keyword] and ./name and \
       ./incategory]",
      None );
    ("//item[./name]", None);
    ( "//item[./mailbox/mail/text[./keyword = 'vintage'] and ./name and \
       ./incategory]",
      None );
    ("//item[./mailbox/mail/text and ./location]", None);
    ("//item[./description//keyword]", Some "twig");
    ("//mail[./text[./bold] and ./date]", Some "twig");
  ]

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let warm_set ~seed =
  let w = Warm_repeat in
  let r = rng ~seed ~purpose:"requests/warm-repeat" in
  let ndocs = (shape w).docs in
  let offset = Random.State.int r ndocs in
  let set =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i (query, algo) ->
              let single = doc_name w ((i + offset) mod ndocs) in
              [
                { query; doc = None; k = 10; algo };
                { query; doc = Some single; k = 10; algo };
              ])
            warm_queries))
  in
  shuffle r set;
  set

(* --- adhoc-cold requests --- *)

(* The XMark element schema (parent -> children) the ad-hoc patterns are
   drawn from.  The documents nest parlist inside listitem; patterns
   leave that recursion to the descendant axis and never root at
   [description]: in a pilot, the few patterns that spelled out the
   recursion under a description root took up to 1.3 s each and alone
   set p99. *)
let schema =
  [
    ( "item",
      [ "incategory"; "mailbox"; "description"; "name"; "location"; "quantity";
        "payment"; "shipping" ] );
    ("mailbox", [ "mail" ]);
    ("mail", [ "from"; "to"; "date"; "text" ]);
    ("description", [ "parlist"; "text" ]);
    ("parlist", [ "listitem" ]);
    ("listitem", [ "text" ]);
    ("text", [ "bold"; "keyword"; "emph" ]);
    ("person", [ "name"; "emailaddress"; "address" ]);
    ("address", [ "city"; "country" ]);
  ]

let children tag = Option.value (List.assoc_opt tag schema) ~default:[]

let descendants tag =
  let rec go seen = function
    | [] -> List.rev seen
    | t :: rest ->
        let fresh = List.filter (fun c -> not (List.mem c seen)) (children t) in
        go (List.rev_append fresh seen) (rest @ fresh)
  in
  go [] [ tag ]

type node = {
  tag : string;
  mutable kids : (string * node) list;  (** axis ("/" or "//"), child *)
  value : string option;  (** keyword-equality predicate *)
}

let pick r l = List.nth l (Random.State.int r (List.length l))

let rec nodes n = n :: List.concat_map (fun (_, c) -> nodes c) n.kids

(* Extensions of [n] under [root] that use a tag not yet in the pattern.
   A repeated sibling is a redundancy the analyzer rejects; a tag
   repeated elsewhere (text under description and under listitem) let
   the relaxations multiply partial matches: in a pilot one such pattern
   took 0.4 s and grew the server heap by 37 MB. *)
let extensions ~root n =
  let used = List.map (fun m -> m.tag) (nodes root) in
  let fresh l = List.filter (fun t -> not (List.mem t used)) l in
  List.map (fun t -> ("/", t)) (fresh (children n.tag))
  @ List.map
      (fun t -> ("//", t))
      (fresh
         (List.filter
            (fun t -> not (List.mem t (children n.tag)))
            (descendants n.tag)))

let rec render n =
  let preds =
    match n.kids with
    | [] -> ""
    | kids ->
        "["
        ^ String.concat " and "
            (List.map (fun (axis, c) -> "." ^ axis ^ render c) kids)
        ^ "]"
  in
  let value = match n.value with None -> "" | Some v -> " = '" ^ v ^ "'" in
  n.tag ^ preds ^ value

(* One random tree pattern of 2-6 nodes with pc and ad edges; about one
   in four carries a keyword-equality content predicate. *)
let adhoc_pattern r =
  let content = Random.State.int r 4 = 0 in
  let root_tag =
    if content then pick r [ "item"; "item"; "mail" ]
    else pick r [ "item"; "item"; "item"; "mail"; "person" ]
  in
  let root = { tag = root_tag; kids = []; value = None } in
  let target = 2 + Random.State.int r 5 in
  let grow () =
    let candidates = List.filter (fun n -> extensions ~root n <> []) (nodes root) in
    match candidates with
    | [] -> false
    | _ ->
        let p = pick r candidates in
        let exts = extensions ~root p in
        (* favour the child axis 3:2 when both are possible *)
        let pcs = List.filter (fun (a, _) -> a = "/") exts in
        let axis, tag =
          if pcs <> [] && (Random.State.int r 5 < 3 || List.length pcs = List.length exts)
          then pick r pcs
          else pick r (List.filter (fun (a, _) -> a = "//") exts)
        in
        p.kids <- p.kids @ [ (axis, { tag; kids = []; value = None }) ];
        true
  in
  if content then begin
    (* the keyword leaf goes under a node that can hold one *)
    let holder =
      List.find
        (fun n -> List.mem "keyword" (descendants n.tag))
        (nodes root)
    in
    let axis = if List.mem "keyword" (children holder.tag) then "/" else "//" in
    let word = pick r (Array.to_list Wp_xmark.Vocabulary.keywords) in
    holder.kids <- [ (axis, { tag = "keyword"; kids = []; value = Some word }) ]
  end;
  let rec fill () =
    if List.length (nodes root) < target && grow () then fill ()
  in
  fill ();
  "//" ^ render root

let adhoc_ks = [ 10; 15; 75 ]

(* [n] requests with pairwise distinct query texts, so every request
   misses the plan cache; every fourth runs on the twig backend. *)
let adhoc_stream ~seed n =
  let w = Adhoc_cold in
  let r = rng ~seed ~purpose:"requests/adhoc-cold" in
  let ndocs = (shape w).docs in
  let seen = Hashtbl.create n in
  let rec fresh () =
    let q = adhoc_pattern r in
    if Hashtbl.mem seen q then fresh ()
    else begin
      Hashtbl.add seen q ();
      q
    end
  in
  Array.init n (fun i ->
      let query = fresh () in
      let doc =
        if Random.State.bool r then None
        else Some (doc_name w (Random.State.int r ndocs))
      in
      let k = pick r adhoc_ks in
      { query; doc; k; algo = (if i mod 4 = 3 then Some "twig" else None) })

(* Upper bound on the requests one run can issue: the stream is
   generated up front and indexed modulo its length. *)
let stream_length = function Warm_repeat -> 20_000 | Adhoc_cold -> 6000

(* Warm requests are drawn from the set in a seeded random order rather
   than cycled in a fixed one: with two closed-loop clients on one
   worker, a fixed cycle locks which requests overlap for a whole run,
   and in a pilot that moved p99 by 25% between runs of the same
   code. *)
let warm_stream ~seed =
  let set = warm_set ~seed in
  let r = rng ~seed ~purpose:"order/warm-repeat" in
  Array.init (stream_length Warm_repeat) (fun _ ->
      set.(Random.State.int r (Array.length set)))

(* The request sequence of a workload: element [i] is the [i]-th
   request the clients issue. *)
let stream w ~seed =
  match w with
  | Warm_repeat -> warm_stream ~seed
  | Adhoc_cold -> adhoc_stream ~seed (stream_length Adhoc_cold)

let request_key r =
  String.concat "\000"
    [
      r.query;
      Option.value r.doc ~default:"*";
      string_of_int r.k;
      Option.value r.algo ~default:"default";
    ]

let to_query ~id r =
  {
    Wp_serve.Protocol.id;
    query = r.query;
    doc = r.doc;
    k = Some r.k;
    deadline_ms = None;
    algo = r.algo;
    routing = None;
    batch = None;
    use_cache = None;
    bound_push = None;
  }
