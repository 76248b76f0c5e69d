module Json = Wp_json.Json
module Obs = Wp_obs.Obs
module Registry = Wp_obs.Registry

type slow_query = {
  query : string;
  doc : string option;
  elapsed_ms : float;
  spans : Json.t;
  profile : Json.t;
}

let slow_log_cap = 32

type t = {
  catalog : Catalog.t;
  metrics : Metrics.t;
  registry : Registry.t;
  default_k : int;
  default_deadline_ms : float option;
  max_k : int;
  base_config : Whirlpool.Engine.Config.t;
  slow_query_ms : float option;
  slow_counter : Registry.counter;
  skipped_counter : Registry.counter;
  state_mutex : Mutex.t;
  (* engine totals aggregated across every served request, and the
     bounded slow-query log (newest first) — both under [state_mutex] *)
  totals : Whirlpool.Stats.t;
  mutable slow_log : slow_query list;
}

let create ?(default_k = 10) ?default_deadline_ms ?(max_k = 1000)
    ?(engine_config = Whirlpool.Engine.Config.default) ?slow_query_ms ~catalog
    () =
  let registry = Registry.create () in
  let metrics = Metrics.create () in
  let totals = Whirlpool.Stats.create () in
  Metrics.register metrics registry;
  Whirlpool.Stats.register totals registry;
  let slow_counter =
    Registry.counter registry
      ~help:"requests slower than the slow-query threshold"
      "wp_serve_slow_queries_total"
  in
  let skipped_counter =
    Registry.counter registry
      ~help:"documents of merged queries skipped because they could not place"
      "wp_serve_merged_docs_skipped_total"
  in
  Registry.pull_gauge registry ~help:"documents in the corpus"
    "wp_corpus_documents" (fun () ->
      float_of_int (List.length (Catalog.docs catalog)));
  Registry.pull_counter registry ~help:"compiled-plan cache hits"
    "wp_plan_cache_hits_total" (fun () ->
      float_of_int (Catalog.plan_cache_stats catalog).hits);
  Registry.pull_counter registry ~help:"compiled-plan cache misses"
    "wp_plan_cache_misses_total" (fun () ->
      float_of_int (Catalog.plan_cache_stats catalog).misses);
  Registry.pull_counter registry
    ~help:"component-table lookups answered from memo, all documents"
    "wp_component_table_hits_total" (fun () ->
      float_of_int (Catalog.component_table_stats catalog).hits);
  Registry.pull_counter registry
    ~help:"component-table lookups that swept the document, all documents"
    "wp_component_table_misses_total" (fun () ->
      float_of_int (Catalog.component_table_stats catalog).misses);
  {
    catalog;
    metrics;
    registry;
    default_k;
    default_deadline_ms;
    max_k;
    base_config = engine_config;
    slow_query_ms;
    slow_counter;
    skipped_counter;
    state_mutex = Mutex.create ();
    totals;
    slow_log = [];
  }

let catalog t = t.catalog
let metrics t = t.metrics
let registry t = t.registry
let record_shed t = Metrics.record_shed t.metrics

let now_ns = Whirlpool.Clock.now_ns

let elapsed_ms_since t0 =
  Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

(* [state_mutex] is always held through [with_state] so an exception
   inside a critical section cannot leak the lock (Sentinel's
   exception-safety rule checks for exactly this). *)
let with_state t f =
  Mutex.lock t.state_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.state_mutex) f

let ( let* ) = Result.bind

let bad msg = Result.Error (Protocol.Bad_request, msg)

let resolve_docs t (q : Protocol.query) =
  match q.doc with
  | Some name -> (
      match Catalog.find t.catalog name with
      | Some d -> Result.Ok [ d ]
      | None -> bad (Printf.sprintf "unknown document: %s" name))
  | None -> (
      match Catalog.docs t.catalog with
      | [] -> bad "the corpus is empty"
      | ds -> Result.Ok ds)

let resolve_k t (q : Protocol.query) =
  let k = Option.value q.k ~default:t.default_k in
  if k < 1 then bad (Printf.sprintf "k must be >= 1 (got %d)" k)
  else Result.Ok (min k t.max_k)

let resolve_algo t (q : Protocol.query) =
  match q.algo with
  | None -> Result.Ok t.base_config.Whirlpool.Engine.Config.algo
  | Some s -> (
      match Whirlpool.Engine.Config.algo_of_string s with
      | Some a -> Result.Ok a
      | None ->
          bad
            (Printf.sprintf "unknown algo %S (serveable: %s)" s
               (String.concat ", "
                  (List.map Whirlpool.Engine.Config.algo_to_string
                     Whirlpool.Engine.Config.all_algos))))

let resolve_routing (q : Protocol.query) =
  match q.routing with
  | None -> Result.Ok None
  | Some s -> (
      match Whirlpool.Strategy.routing_of_string s with
      | Some r -> Result.Ok (Some r)
      | None -> bad (Printf.sprintf "unknown routing %S" s))

(* Knobs whose mechanism is gone: a request that still carries one is
   refused, naming the field, rather than silently ignored. *)
let reject_removed_knobs (q : Protocol.query) =
  let removed field what =
    bad (Printf.sprintf "%s is no longer accepted: %s was removed" field what)
  in
  match q with
  | { use_cache = Some _; _ } -> removed "use_cache" "the candidate cache"
  | { batch = Some _; _ } -> removed "batch" "bulk routing"
  | { bound_push = Some _; _ } -> removed "bound_push" "sharding"
  | _ -> Result.Ok ()

(* The per-request deadline, as the engines' cooperative-cancellation
   hook: checked at iteration boundaries, so expiry yields the current
   top-k flagged partial instead of an unbounded run.  0 has already
   expired; a deadline past the int64 nanosecond clock's range
   saturates to none at all. *)
let deadline_hook t (q : Protocol.query) ~t0 =
  match
    match q.deadline_ms with
    | Some ms -> Some ms
    | None -> t.default_deadline_ms
  with
  | None -> Result.Ok Whirlpool.Engine.never_stop
  | Some ms when ms < 0.0 || not (Float.is_finite ms) ->
      bad (Printf.sprintf "deadline_ms must be finite and >= 0 (got %g)" ms)
  | Some ms ->
      let ns = ms *. 1e6 in
      if ns >= Int64.to_float (Int64.sub Int64.max_int t0) then
        Result.Ok Whirlpool.Engine.never_stop
      else
        let deadline = Int64.add t0 (Int64.of_float ns) in
        Result.Ok (fun () -> Int64.compare (now_ns ()) deadline >= 0)

let note_totals t (stats : Whirlpool.Stats.t) =
  with_state t (fun () -> Whirlpool.Stats.add t.totals stats)

(* The per-request engine configuration: service defaults overridden by
   the request's knobs, plus the deadline hook and (when the slow-query
   log is armed) a fresh observability context. *)
let request_config t ~routing ~should_stop ~obs =
  let open Whirlpool.Engine.Config in
  let c = t.base_config in
  let c = match routing with None -> c | Some r -> with_routing r c in
  c |> with_should_stop should_stop |> with_obs obs

let plan_for t (doc : Catalog.doc) (q : Protocol.query) =
  Result.map
    (fun (c : Catalog.cached_plan) -> c.plan)
    (Result.map_error
       (function
         | Catalog.Bad_query m -> (Protocol.Bad_request, m)
         | Catalog.Rejected m -> (Protocol.Lint_rejected, m))
       (Catalog.plan_for t.catalog doc q.query))

(* The merge order: best score first, ties by document name, then root
   id. *)
let merge_order ((d1 : Catalog.doc), (e1 : Whirlpool.Topk_set.entry))
    ((d2 : Catalog.doc), (e2 : Whirlpool.Topk_set.entry)) =
  match Float.compare e2.score e1.score with
  | 0 -> (
      match String.compare d1.name d2.name with
      | 0 -> Int.compare e1.root e2.root
      | c -> c)
  | c -> c

(* Whether a document whose matches score at most [head] can place in
   [merged], the top k so far in merge order: not once k entries are
   held and its best possible entry, [head] under its name, sorts after
   the k-th.  No two documents share a name, so a tie at the k-th score
   goes by name. *)
let can_place ~k merged (doc : Catalog.doc) head =
  match List.nth_opt merged (k - 1) with
  | None -> true
  | Some ((kd : Catalog.doc), (ke : Whirlpool.Topk_set.entry)) ->
      head > ke.score
      || (head = ke.score && String.compare doc.name kd.name < 0)

(* Run the documents best head bound first, ties by name, keeping the
   top k in merge order.  A document after one that cannot place has a
   lower bound, or the same bound and a later name, so it cannot place
   either: the first such document ends the loop, and the documents
   skipped would have added nothing to the merge.  The deadline also
   applies between documents. *)
let run_docs t ~config ~algo ~k ~should_stop docs (q : Protocol.query) =
  let* plans =
    List.fold_left
      (fun acc doc ->
        let* acc = acc in
        let* plan = plan_for t doc q in
        Result.Ok ((doc, plan, Whirlpool.Plan.head_bound plan) :: acc))
      (Result.Ok []) docs
  in
  let order ((d1 : Catalog.doc), _, b1) ((d2 : Catalog.doc), _, b2) =
    match Float.compare b2 b1 with
    | 0 -> String.compare d1.name d2.name
    | c -> c
  in
  let config = Whirlpool.Engine.Config.with_algo algo config in
  let stats = Whirlpool.Stats.create () in
  let rec go merged partial = function
    | [] -> (merged, partial)
    | (doc, _, head) :: _ as rest when not (can_place ~k merged doc head) ->
        Registry.incr ~by:(List.length rest) t.skipped_counter;
        (merged, partial)
    | _ :: _ when should_stop () -> (merged, true)
    | (doc, plan, _) :: rest ->
        let result = Wp_twig.Backend.run ~config plan ~k in
        note_totals t result.stats;
        Whirlpool.Stats.add stats result.stats;
        let merged =
          List.filteri
            (fun i _ -> i < k)
            (List.sort merge_order
               (List.rev_append
                  (List.map (fun e -> (doc, e)) result.answers)
                  merged))
        in
        go merged (partial || result.Whirlpool.Engine.partial) rest
  in
  let merged, partial = go [] false (List.sort order plans) in
  Result.Ok (merged, stats, partial)

let entry_answer (doc : Catalog.doc) (e : Whirlpool.Topk_set.entry) =
  let d = Wp_xml.Index.doc doc.Catalog.index in
  {
    Protocol.doc = doc.Catalog.name;
    root = e.root;
    dewey = Wp_xml.Dewey.to_string (Wp_xml.Doc.dewey d e.root);
    score = e.score;
    progress = e.progress;
  }

let run_query t (q : Protocol.query) ~t0 ~obs ~cancelled ~on_entry =
  let* docs = resolve_docs t q in
  let* k = resolve_k t q in
  let* algo = resolve_algo t q in
  let* routing = resolve_routing q in
  let* () = reject_removed_knobs q in
  let* deadline = deadline_hook t q ~t0 in
  (* The run must also stop when the client is gone: a vanished
     connection cancels its in-flight query at the next iteration
     boundary instead of burning a worker to completion. *)
  let should_stop =
    match cancelled with
    | None -> deadline
    | Some gone -> fun () -> deadline () || gone ()
  in
  let config = request_config t ~routing ~should_stop ~obs in
  (* Streaming is sound only when one document answers the query: a
     merged top-k can displace one document's certified entry with
     another's, so merged queries stay buffered. *)
  let config =
    match (on_entry, docs) with
    | Some emit, [ (doc : Catalog.doc) ] ->
        Whirlpool.Engine.Config.with_on_certified (emit doc) config
    | _ -> config
  in
  let* merged, stats, partial =
    run_docs t ~config ~algo ~k ~should_stop docs q
  in
  Result.Ok
    (List.map (fun (doc, e) -> entry_answer doc e) merged, stats, partial)

let note_slow t (q : Protocol.query) ~elapsed_ms ~obs =
  match t.slow_query_ms with
  | Some threshold when elapsed_ms >= threshold ->
      Registry.incr t.slow_counter;
      let entry =
        {
          query = q.query;
          doc = q.doc;
          elapsed_ms;
          spans = Obs.span_tree_json obs;
          profile = Obs.profile_json obs;
        }
      in
      with_state t (fun () ->
          t.slow_log <-
            entry :: List.filteri (fun i _ -> i < slow_log_cap - 1) t.slow_log)
  | Some _ | None -> ()

let handle_query_stream t ?cancelled ?on_part (q : Protocol.query) =
  let t0 = now_ns () in
  (* A context per request: the slow-query log wants the full span tree
     of exactly the offending request, so sampling is 1 and the cap
     bounds memory per request instead. *)
  let obs =
    match t.slow_query_ms with
    | Some _ -> Obs.create ()
    | None -> Obs.disabled
  in
  let streamed = ref 0 in
  let on_entry =
    match on_part with
    | None -> None
    | Some emit ->
        Some
          (fun doc e ->
            if !streamed = 0 then
              Metrics.record_ttfa t.metrics ~ms:(elapsed_ms_since t0);
            incr streamed;
            emit (entry_answer doc e))
  in
  let outcome =
    match run_query t q ~t0 ~obs ~cancelled ~on_entry with
    | r -> r
    | exception exn ->
        Result.Error
          ( Protocol.Internal,
            Printf.sprintf "internal error: %s" (Printexc.to_string exn) )
  in
  let elapsed_ms = elapsed_ms_since t0 in
  note_slow t q ~elapsed_ms ~obs;
  let response =
    match outcome with
    | Result.Ok (answers, stats, partial) ->
        Metrics.record t.metrics
          ~status:(if partial then `Partial else `Ok)
          ~latency_ms:elapsed_ms;
        Protocol.ok_response ~answers
          ~stats:(Whirlpool.Stats.to_json stats)
          ~partial ~id:q.id ~elapsed_ms ()
    | Result.Error (code, msg) ->
        Metrics.record t.metrics ~status:`Error ~latency_ms:elapsed_ms;
        Protocol.error_response ~id:q.id ~elapsed_ms ~code msg
  in
  (response, !streamed)

let handle_query t (q : Protocol.query) = fst (handle_query_stream t q)

let slow_queries t =
  let entries = with_state t (fun () -> t.slow_log) in
  Json.List
    (List.map
       (fun e ->
         Json.Obj
           ([ ("query", Json.String e.query) ]
           @ (match e.doc with
             | None -> []
             | Some d -> [ ("doc", Json.String d) ])
           @ [
               ("elapsed_ms", Json.Float e.elapsed_ms);
               ("profile", e.profile);
               ("spans", e.spans);
             ]))
       entries)

let metrics_json t =
  let open Json in
  let docs = Catalog.docs t.catalog in
  let nodes = List.fold_left (fun a (d : Catalog.doc) -> a + d.nodes) 0 docs in
  let pc = Catalog.plan_cache_stats t.catalog in
  let ct = Catalog.component_table_stats t.catalog in
  let slow = with_state t (fun () -> List.length t.slow_log) in
  Metrics.snapshot t.metrics
    ~extra:
      [
        ( "corpus",
          Obj
            [
              ("documents", Int (List.length docs));
              ( "names",
                List (List.map (fun (d : Catalog.doc) -> String d.name) docs) );
              ("nodes", Int nodes);
            ] );
        ( "plan_cache",
          Obj
            [
              ("size", Int pc.size);
              ("capacity", Int pc.capacity);
              ("hits", Int pc.hits);
              ("misses", Int pc.misses);
              ("evictions", Int pc.evictions);
              ("hit_rate", Float pc.hit_rate);
            ] );
        ( "component_table",
          Obj
            [
              ("hits", Int ct.hits);
              ("misses", Int ct.misses);
              ("size", Int ct.size);
            ] );
        ("slow_queries", Int slow);
      ]

let prometheus t = Registry.to_prometheus (Registry.snapshot t.registry)

let handle t (req : Protocol.request) =
  match req with
  | Protocol.Query q -> `Reply (handle_query t q)
  | Protocol.Metrics { id; format = Protocol.Json_format } ->
      `Reply
        (Protocol.ok_response ~metrics:(metrics_json t) ~id ~elapsed_ms:0.0 ())
  | Protocol.Metrics { id; format = Protocol.Prometheus } ->
      `Reply
        (Protocol.ok_response ~metrics_text:(prometheus t) ~id ~elapsed_ms:0.0
           ())
  | Protocol.Ping { id } ->
      `Reply (Protocol.ok_response ~id ~elapsed_ms:0.0 ())
  | Protocol.Stop { id } ->
      `Stop (Protocol.ok_response ~id ~elapsed_ms:0.0 ())
