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
  Registry.pull_gauge registry ~help:"documents in the corpus"
    "wp_corpus_documents" (fun () ->
      float_of_int (List.length (Catalog.docs catalog)));
  Registry.pull_gauge registry ~help:"catalog shards"
    "wp_corpus_shards" (fun () -> float_of_int (Catalog.shards catalog));
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

let resolve_batch (q : Protocol.query) =
  match q.batch with
  | Some b when b < 1 -> bad (Printf.sprintf "batch must be >= 1 (got %d)" b)
  | other -> Result.Ok other

(* The candidate cache that [use_cache] toggled is gone; a request that
   still carries the knob is refused rather than silently ignored. *)
let resolve_use_cache (q : Protocol.query) =
  match q.use_cache with
  | None -> Result.Ok ()
  | Some _ ->
      bad "use_cache is no longer accepted: the candidate cache was removed"

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
let request_config t ~routing ~batch ~should_stop ~obs =
  let open Whirlpool.Engine.Config in
  let c = t.base_config in
  let c = match routing with None -> c | Some r -> with_routing r c in
  let c = match batch with None -> c | Some b -> with_batch b c in
  c |> with_should_stop should_stop |> with_obs obs

(* One engine run over one document: resolve the memoized plan and
   run. *)
let run_doc t ~config ~algo ~k (doc : Catalog.doc) (q : Protocol.query) =
  let* cached =
    Result.map_error
      (function
        | Catalog.Bad_query m -> (Protocol.Bad_request, m)
        | Catalog.Rejected m -> (Protocol.Lint_rejected, m))
      (Catalog.plan_for t.catalog doc q.query)
  in
  let config = Whirlpool.Engine.Config.with_algo algo config in
  (* The twig backend reads the catalog's per-document guide (built on
     the first twig query, shared thereafter); the other engines never
     build it. *)
  let result =
    match algo with
    | Whirlpool.Engine.Config.Twig ->
        Wp_twig.Backend.run ~config
          ~guide:(Catalog.dataguide t.catalog doc)
          cached.Catalog.plan ~k
    | _ -> Wp_twig.Backend.run ~config cached.Catalog.plan ~k
  in
  note_totals t result.stats;
  Result.Ok result

(* Sequentially run a list of documents (one shard's slice, or the
   whole corpus when unsharded), folding answers tagged with their
   document.  [gather] is [None] on the unsharded path; on a shard
   thread it wires the cross-shard bound into every run and feeds each
   run's answer scores back. *)
let run_docs t ~config ~algo ~k ~should_stop ~gather docs
    (q : Protocol.query) =
  let config =
    match gather with
    | None -> config
    | Some g ->
        let open Whirlpool.Engine.Config in
        config
        |> with_prune_bound (Gather.bound_reader g)
        |> with_publish_threshold (fun th -> Gather.publish g th)
  in
  let stats = Whirlpool.Stats.create () in
  let partial = ref false in
  let* tagged =
    List.fold_left
      (fun acc (doc : Catalog.doc) ->
        let* acc = acc in
        (* Between documents of a merged query the deadline also
           applies: skip the remaining documents once it has passed. *)
        if should_stop () then begin
          partial := true;
          Result.Ok acc
        end
        else
          let* result = run_doc t ~config ~algo ~k doc q in
          if result.Whirlpool.Engine.partial then partial := true;
          Whirlpool.Stats.add stats result.stats;
          (match gather with
          | Some g ->
              Gather.note_scores g
                (List.map
                   (fun (e : Whirlpool.Topk_set.entry) -> e.score)
                   result.answers)
          | None -> ());
          Result.Ok
            (List.rev_append
               (List.map (fun e -> (doc, e)) result.answers)
               acc))
      (Result.Ok []) docs
  in
  Result.Ok (tagged, stats, !partial)

(* Scatter–gather: one thread per non-empty shard, each running its
   documents sequentially; the gather merges their answers and — when
   bound pushing is on — republishes the merged k-th score so a shard
   still running prunes against what the others already found.  Slots
   are written by exactly one thread each and read only after the
   joins; the shared bound lives behind the gather's own mutex. *)
let scatter_gather t ~config ~algo ~k ~should_stop ~push groups
    (q : Protocol.query) =
  let gather = Gather.create ~push ~k () in
  let n = List.length groups in
  let slots = Array.make n (Result.Ok ([], Whirlpool.Stats.create (), false)) in
  let run_group i docs =
    slots.(i) <-
      (match
         run_docs t ~config ~algo ~k ~should_stop ~gather:(Some gather) docs q
       with
      | r -> r
      | exception exn ->
          Result.Error
            ( Protocol.Internal,
              Printf.sprintf "internal error: %s" (Printexc.to_string exn) ))
  in
  let threads =
    List.mapi (fun i docs -> Thread.create (fun () -> run_group i docs) ())
      groups
  in
  List.iter Thread.join threads;
  let stats = Whirlpool.Stats.create () in
  let partial = ref false in
  let* tagged =
    Array.fold_left
      (fun acc slot ->
        let* acc = acc in
        let* group_tagged, group_stats, group_partial = slot in
        Whirlpool.Stats.add stats group_stats;
        if group_partial then partial := true;
        Result.Ok (List.rev_append group_tagged acc))
      (Result.Ok []) slots
  in
  Result.Ok (tagged, stats, !partial)

(* Group the resolved documents by shard, in shard order; a stable
   partition so the merged answer order stays deterministic. *)
let shard_groups docs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (d : Catalog.doc) ->
      Hashtbl.replace tbl d.shard (d :: Option.value (Hashtbl.find_opt tbl d.shard) ~default:[]))
    docs;
  Hashtbl.fold (fun shard ds acc -> (shard, List.rev ds) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

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
  let* batch = resolve_batch q in
  let* () = resolve_use_cache q in
  let* deadline = deadline_hook t q ~t0 in
  (* The run must also stop when the client is gone: a vanished
     connection cancels its in-flight query at the next iteration
     boundary instead of burning a worker to completion. *)
  let should_stop =
    match cancelled with
    | None -> deadline
    | Some gone -> fun () -> deadline () || gone ()
  in
  let config = request_config t ~routing ~batch ~should_stop ~obs in
  (* Streaming is sound only when one document answers the query: a
     merged or scattered top-k can displace one document's certified
     entry with another's, so those stay buffered. *)
  let config =
    match (on_entry, docs) with
    | Some emit, [ (doc : Catalog.doc) ] ->
        Whirlpool.Engine.Config.with_on_certified (emit doc) config
    | _ -> config
  in
  let groups = shard_groups docs in
  let* tagged, stats, partial =
    match groups with
    | [] | [ _ ] ->
        run_docs t ~config ~algo ~k ~should_stop ~gather:None docs q
    | _ :: _ :: _ ->
        let push = Option.value q.bound_push ~default:true in
        scatter_gather t ~config ~algo ~k ~should_stop ~push groups q
  in
  (* Merge across documents: best scores first, ties by document name
     then root id for a deterministic order. *)
  let merged =
    List.sort
      (fun ((d1 : Catalog.doc), (e1 : Whirlpool.Topk_set.entry))
           (d2, (e2 : Whirlpool.Topk_set.entry)) ->
        match Float.compare e2.score e1.score with
        | 0 -> (
            match String.compare d1.name d2.name with
            | 0 -> Int.compare e1.root e2.root
            | c -> c)
        | c -> c)
      tagged
  in
  let top = List.filteri (fun i _ -> i < k) merged in
  Result.Ok (List.map (fun (doc, e) -> entry_answer doc e) top, stats, partial)

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
              ("nodes", Int nodes);
              ("shards", Int (Catalog.shards t.catalog));
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
  | Protocol.Hello { id; version } ->
      (* Meet at the highest version both sides speak. *)
      `Reply
        (Protocol.ok_response
           ~version:(min version Protocol.current_version)
           ~id ~elapsed_ms:0.0 ())
  | Protocol.Stop { id } ->
      `Stop (Protocol.ok_response ~id ~elapsed_ms:0.0 ())
