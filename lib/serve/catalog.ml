type doc = {
  name : string;
  path : string;
  index : Wp_xml.Index.t;
  nodes : int;
  mutable dataguide : Wp_stats.Dataguide.t option;
  memo : Wp_score.Component_table.t;
}

(* [cache] carries nothing: it stays only because perfbench's replay
   still reads the field, and goes with the next change to the
   benchmark's protocol. *)
type cached_plan = { plan : Whirlpool.Plan.t; cache : unit }

type t = {
  mutex : Mutex.t;
  docs : (string, doc) Hashtbl.t;
  mutable order : string list;  (* newest first *)
  plans : (string * string, Whirlpool.Plan.t) Lru.t;  (* (query, doc name) *)
  config : Wp_relax.Relaxation.config;
}

type cache_stats = {
  size : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
  hit_rate : float;
}

let create ?(plan_cache = 128) ?(config = Wp_relax.Relaxation.all) () =
  {
    mutex = Mutex.create ();
    docs = Hashtbl.create 16;
    order = [];
    plans = Lru.create ~capacity:plan_cache;
    config;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Documents load from XML or from a compacted on-disk index (.wpidx,
   memory-mapped), detected by content rather than by file name. *)
let read_index path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
      let magic = Wp_storage.Index_file.magic in
      let probe =
        try really_input_string ic (String.length magic)
        with End_of_file -> ""
      in
      close_in_noerr ic;
      if String.equal probe magic then
        match Wp_storage.Index_file.open_index path with
        | Ok h -> Ok (Wp_storage.Index_file.index h)
        | Error e -> Error (Wp_storage.Index_file.error_message e)
      else
        match Wp_xml.Doc.of_tree (Wp_xml.Parser.parse_file path) with
        | d -> Ok (Wp_xml.Index.build d)
        | exception Wp_xml.Parser.Error { position; message } ->
            Error
              (Printf.sprintf "%s: parse error at byte %d: %s" path position
                 message)
        | exception Sys_error m -> Error m

let load_file t ?name path =
  let name = match name with Some n -> n | None -> Filename.basename path in
  match read_index path with
  | Error _ as e -> e
  | Ok index ->
      let doc =
        { name; path; index; nodes = Wp_xml.Doc.size (Wp_xml.Index.doc index);
          dataguide = None;
          memo = Wp_score.Component_table.create () }
      in
      (* A reload drops the name's plans: they were compiled against
         the old index. *)
      with_lock t (fun () ->
          if Hashtbl.mem t.docs name then
            Lru.filter t.plans (fun (_, n) _ -> not (String.equal n name))
          else t.order <- name :: t.order;
          Hashtbl.replace t.docs name doc);
      Ok doc

let corpus_file f =
  Filename.check_suffix f ".xml" || Filename.check_suffix f ".wpidx"

let load_dir t dir =
  match Sys.readdir dir with
  | exception Sys_error m -> Error m
  | entries ->
      let files =
        Array.to_list entries |> List.filter corpus_file |> List.sort compare
      in
      if files = [] then
        Error (Printf.sprintf "%s: no .xml or .wpidx files" dir)
      else
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | f :: rest -> (
              match load_file t (Filename.concat dir f) with
              | Ok doc -> go (doc :: acc) rest
              | Error _ as e -> e)
        in
        go [] files

let docs t =
  with_lock t (fun () ->
      List.rev_map (fun name -> Hashtbl.find t.docs name) t.order)

let find t name = with_lock t (fun () -> Hashtbl.find_opt t.docs name)

(* Look up under the lock, build without it, and insert under it
   again, as [plan_for] does: two domains missing at once may both
   build, but the first insert wins and both get it. *)
let dataguide t doc =
  match with_lock t (fun () -> doc.dataguide) with
  | Some g -> g
  | None ->
      let g = Wp_stats.Dataguide.build (Wp_xml.Index.doc doc.index) in
      with_lock t (fun () ->
          match doc.dataguide with
          | Some g -> g
          | None ->
              doc.dataguide <- Some g;
              g)

type plan_error =
  | Bad_query of string
  | Rejected of string

let plan_error_message = function Bad_query m | Rejected m -> m

(* Parse and compile one plan, outside the catalog mutex.  Compile
   lints the plan, so a refused query never occupies a cache slot. *)
let compile t doc query =
  match Wp_pattern.Xpath_parser.parse_opt query with
  | None -> Error (Bad_query (Printf.sprintf "cannot parse query: %s" query))
  | Some pattern -> (
      match Whirlpool.Plan.compile ~memo:doc.memo doc.index t.config pattern with
      | plan -> Ok plan
      | exception Wp_analysis.Lint.Rejected diags ->
          Error
            (Rejected
               (Format.asprintf "query rejected by lint:@ %a"
                  Wp_analysis.Diagnostic.pp_list diags))
      | exception Invalid_argument m ->
          Error (Bad_query (Printf.sprintf "cannot compile query: %s" m)))

(* Under the catalog mutex: is [doc] still the entry for its name? *)
let is_current t doc =
  match Hashtbl.find_opt t.docs doc.name with
  | Some d -> d == doc
  | None -> false

(* Look up under the lock, compile without it, and insert under it
   again.  A concurrent miss on the same key may compile the plan
   twice, but only the first insert is kept and every caller gets that
   entry.  A plan is only served for the index it was compiled against,
   and a compile for a document that was reloaded meanwhile is returned
   uncached. *)
let plan_for t doc query =
  let key = (query, doc.name) in
  match with_lock t (fun () -> Lru.find t.plans key) with
  | Some (plan : Whirlpool.Plan.t) when plan.index == doc.index ->
      Ok { plan; cache = () }
  | Some _ | None ->
      Result.map
        (fun plan ->
          with_lock t (fun () ->
              let plan =
                if is_current t doc then Lru.add_absent t.plans key plan
                else plan
              in
              { plan; cache = () }))
        (compile t doc query)

let plan_cache_stats t =
  with_lock t (fun () ->
      {
        size = Lru.length t.plans;
        capacity = Lru.capacity t.plans;
        hits = Lru.hits t.plans;
        misses = Lru.misses t.plans;
        evictions = Lru.evictions t.plans;
        hit_rate = Lru.hit_rate t.plans;
      })

(* Each document's table has its own lock; none is taken under the
   catalog mutex. *)
let component_table_stats t =
  List.fold_left
    (fun (acc : Wp_score.Component_table.stats) doc ->
      let s = Wp_score.Component_table.stats doc.memo in
      { hits = acc.hits + s.hits; misses = acc.misses + s.misses;
        size = acc.size + s.size })
    { hits = 0; misses = 0; size = 0 }
    (docs t)
