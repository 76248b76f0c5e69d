module Obs = Wp_obs.Obs

type result = {
  answers : Topk_set.entry list;
  stats : Stats.t;
  partial : bool;
}

let never_stop () = false

let now_ns = Clock.now_ns

let no_bound () = Float.neg_infinity
let no_publish (_ : float) = ()
let no_certify (_ : Topk_set.entry) = ()

module Config = struct
  type algo =
    | Whirlpool
    | Whirlpool_mt
    | Lockstep
    | Lockstep_noprun
    | Twig
    | Twig_seeded

  let all_algos =
    [ Whirlpool; Whirlpool_mt; Lockstep; Lockstep_noprun; Twig; Twig_seeded ]

  let algo_to_string = function
    | Whirlpool -> "whirlpool-s"
    | Whirlpool_mt -> "whirlpool-m"
    | Lockstep -> "lockstep"
    | Lockstep_noprun -> "lockstep-noprun"
    | Twig -> "twig"
    | Twig_seeded -> "twig-seeded"

  let algo_of_string = function
    | "whirlpool-s" | "ws" -> Some Whirlpool
    | "whirlpool-m" | "wm" -> Some Whirlpool_mt
    | "lockstep" -> Some Lockstep
    | "lockstep-noprun" | "noprun" -> Some Lockstep_noprun
    | "twig" -> Some Twig
    | "twig-seeded" -> Some Twig_seeded
    | _ -> None

  type t = {
    algo : algo;
    routing : Strategy.routing;
    queue_policy : Strategy.queue_policy;
    batch : int;
    use_cache : bool;
    threads_per_server : int;
    should_stop : unit -> bool;
    trace : Trace.t;
    obs : Obs.t;
    cache : Candidate_cache.t option;
    prune_bound : unit -> float;
    publish_threshold : float -> unit;
    on_certified : Topk_set.entry -> unit;
  }

  let default =
    {
      algo = Whirlpool;
      routing = Strategy.Min_alive;
      queue_policy = Strategy.Max_final_score;
      batch = 1;
      use_cache = true;
      threads_per_server = 1;
      should_stop = never_stop;
      trace = Trace.ignore_tracer;
      obs = Obs.disabled;
      cache = None;
      prune_bound = no_bound;
      publish_threshold = no_publish;
      on_certified = no_certify;
    }

  let with_algo algo t = { t with algo }
  let with_routing routing t = { t with routing }
  let with_queue_policy queue_policy t = { t with queue_policy }
  let with_batch batch t = { t with batch }
  let with_use_cache use_cache t = { t with use_cache }
  let with_cache cache t = { t with cache }
  let with_threads_per_server threads_per_server t = { t with threads_per_server }
  let with_should_stop should_stop t = { t with should_stop }
  let with_prune_bound prune_bound t = { t with prune_bound }
  let with_publish_threshold publish_threshold t = { t with publish_threshold }
  let with_on_certified on_certified t = { t with on_certified }
  let with_trace trace t = { t with trace }
  let with_obs obs t = { t with obs }
end

(* Static gate: a plan whose pattern or predicate sequences carry
   error-severity lint findings would silently return wrong answers;
   refuse to run it (raises {!Wp_analysis.Lint.Rejected}). *)
let validate_plan (plan : Plan.t) =
  Wp_analysis.Lint.validate_exn ~config:plan.config ~specs:plan.specs
    plan.pattern;
  if Invariants.enabled () then Invariants.check_table plan.scores

let run ?(config = Config.default) (plan : Plan.t) ~k =
  let {
    Config.routing;
    queue_policy;
    batch;
    use_cache;
    should_stop;
    obs;
    prune_bound;
    publish_threshold;
    _;
  } =
    config
  in
  if batch < 1 then invalid_arg "Engine.run: batch >= 1";
  validate_plan plan;
  (* [config.cache] lets a caller share one (plan-scoped) candidate
     cache across runs — the serve tier's cross-request cache; absent,
     each run memoizes privately as before. *)
  let cache =
    if not use_cache then None
    else match config.cache with Some _ as c -> c | None -> Some (Candidate_cache.create ())
  in
  let stats = Stats.create () in
  let t0 = now_ns () in
  (* Observability: a root span for the run, a child per iteration
     batch, a grandchild per server visit; trace events attach to the
     innermost open span.  All of it reads the counters without writing
     them, so a disabled (or unsampled) context leaves the run
     bit-identical. *)
  let obs_on = Obs.enabled obs in
  let qspan = if obs_on then Obs.root obs "query" else None in
  Obs.attr obs qspan "k" (float_of_int k);
  Obs.attr obs qspan "servers" (float_of_int plan.n_servers);
  let cur_span = ref qspan in
  let trace =
    if obs_on then (fun e ->
      config.trace e;
      Obs.event obs !cur_span (fun () ->
          Format.asprintf "%a" Trace.pp_event e))
    else config.trace
  in
  let topk = Topk_set.create ~k ~admit_partial:(Plan.admits_partial_answers plan) in
  (* Streaming certification: when the caller installed an
     [on_certified] hook, push entries the moment no alive match can
     beat them.  The physical-equality gate (the [Trace.ignore_tracer]
     idiom) keeps the default path free.  At every certification point
     the queue holds exactly the alive matches, so under the default
     max-final-score policy, whose priority is [max_possible], the
     queue's top priority is the certification bar; other policies
     order the queue differently and track the alive set aside. *)
  let cert =
    if config.on_certified == no_certify then None
    else Some (Certify.create ~emit:config.on_certified)
  in
  let alive =
    match (cert, queue_policy) with
    | Some _, Strategy.(Fifo | Current_score | Max_next_score) ->
        Some (Certify.Alive.create ())
    | Some _, Strategy.Max_final_score | None, _ -> None
  in
  let cert_add pm =
    match alive with Some a -> Certify.Alive.add a pm | None -> ()
  in
  let cert_remove (pm : Partial_match.t) =
    match alive with Some a -> Certify.Alive.remove a pm.id | None -> ()
  in
  let queue : Partial_match.t Pqueue.t = Pqueue.create () in
  let certify () =
    match cert with
    | None -> ()
    | Some c ->
        let bound =
          match alive with
          | Some a -> Certify.Alive.bound a
          | None -> Pqueue.max_priority queue
        in
        Certify.flush c topk ~bound
  in
  let seq = ref 0 in
  let next_id =
    let n = ref 0 in
    fun () -> incr n; !n
  in
  let enqueue (pm : Partial_match.t) =
    incr seq;
    cert_add pm;
    (* Equal priorities break toward the higher current score: matches
       closer to completion finish first, raising the threshold early. *)
    Pqueue.push queue ~tie:pm.score
      (Strategy.priority queue_policy plan ~seq:!seq ~server:None pm)
      pm
  in
  (* External bound pushing (scatter–gather): [prune_bound] is a floor
     published by the other shards' gathered top-k — a match that cannot
     strictly beat it can never enter the merged answer, so the strict
     [<] keeps ties alive and sharded answers identical to unsharded.
     [publish] reports this run's own threshold whenever it tightens. *)
  let xpruned (pm : Partial_match.t) = pm.max_possible < prune_bound () in
  let published = ref Float.neg_infinity in
  let publish () =
    let th = Topk_set.threshold topk in
    if th > !published then begin
      published := th;
      publish_threshold th
    end
  in
  let single_node = plan.n_servers = 1 in
  let checking = Invariants.enabled () in
  List.iter
    (fun pm ->
      if checking then Invariants.check_root plan pm;
      Topk_set.consider topk ~complete:single_node pm;
      if single_node then stats.completed <- stats.completed + 1
      else if Topk_set.should_prune topk pm || xpruned pm then
        stats.matches_pruned <- stats.matches_pruned + 1
      else enqueue pm)
    (Server.initial_matches plan stats ~next_id);
  publish ();
  certify ();
  let process_here (pm : Partial_match.t) server =
    let { Server.extensions; died } =
      Server.process ?cache plan stats ~next_id pm ~server
    in
    if checking then
      List.iter (Invariants.check_extension plan ~parent:pm) extensions;
    if died then begin
      trace (Trace.Died { id = pm.id; server });
      Topk_set.retract topk pm
    end;
    List.iter
      (fun (ext : Partial_match.t) ->
        let complete = Partial_match.is_complete ext ~full_mask:plan.full_mask in
        trace
          (Trace.Extended
             {
               parent = pm.id;
               id = ext.id;
               server;
               bound = Partial_match.bound ext server <> None;
             });
        Topk_set.consider topk ~complete ext;
        if complete then begin
          trace (Trace.Completed { id = ext.id; score = ext.score });
          stats.completed <- stats.completed + 1
        end
        else if Topk_set.should_prune topk ext || xpruned ext then begin
          trace (Trace.Pruned { id = ext.id });
          stats.matches_pruned <- stats.matches_pruned + 1
        end
        else enqueue ext)
      extensions
  in
  let process_at (pm : Partial_match.t) server =
    if not obs_on then process_here pm server
    else begin
      let vspan = Obs.child obs ~parent:!cur_span "visit" in
      let saved = !cur_span in
      if vspan <> None then cur_span := vspan;
      let v0 = now_ns () in
      let c0 = stats.comparisons
      and h0 = stats.cache_hits
      and m0 = stats.cache_misses in
      process_here pm server;
      Obs.visit obs ~server
        ~comparisons:(stats.comparisons - c0)
        ~cache_hits:(stats.cache_hits - h0)
        ~cache_misses:(stats.cache_misses - m0)
        ~ns:(Int64.sub (now_ns ()) v0);
      Obs.attr obs vspan "server" (float_of_int server);
      Obs.finish obs vspan;
      cur_span := saved
    end
  in
  let stopped = ref false in
  let rec loop () =
    match Pqueue.pop queue with
    | None -> ()
    | Some _ when should_stop () ->
        (* Deadline / cancellation: abandon the popped match and the
           rest of the queue — the top-k set already holds the best
           answers known so far, returned flagged [partial]. *)
        stopped := true
    | Some pm ->
        cert_remove pm;
        trace
          (Trace.Popped
             { id = pm.id; score = pm.score; max_possible = pm.max_possible });
        if Topk_set.should_prune topk pm || xpruned pm then begin
          trace (Trace.Pruned { id = pm.id });
          stats.matches_pruned <- stats.matches_pruned + 1
        end
        else begin
          let server =
            Strategy.choose_next routing plan
              ~threshold:(Topk_set.threshold topk) pm
          in
          stats.routing_decisions <- stats.routing_decisions + 1;
          trace (Trace.Routed { id = pm.id; server });
          let bspan =
            if obs_on then begin
              let b = Obs.child obs ~parent:qspan "batch" in
              Obs.attr obs b "server" (float_of_int server);
              if b <> None then cur_span := b;
              b
            end
            else None
          in
          process_at pm server;
          (* Bulk adaptivity: reuse the decision for queue heads that
             have visited the same servers (and therefore admit the same
             choice), without paying another decision. *)
          let rec drain_batch budget =
            if budget > 0 then
              match Pqueue.peek queue with
              | Some (head : Partial_match.t)
                when head.visited_mask = pm.visited_mask -> (
                  match Pqueue.pop queue with
                  | Some next ->
                      cert_remove next;
                      trace
                        (Trace.Popped
                           {
                             id = next.id;
                             score = next.score;
                             max_possible = next.max_possible;
                           });
                      if Topk_set.should_prune topk next || xpruned next then begin
                        trace (Trace.Pruned { id = next.id });
                        stats.matches_pruned <- stats.matches_pruned + 1
                      end
                      else begin
                        trace (Trace.Routed { id = next.id; server });
                        process_at next server
                      end;
                      drain_batch (budget - 1)
                  | None -> ())
              | Some _ | None -> ()
          in
          drain_batch (batch - 1);
          if obs_on then begin
            Obs.finish obs bspan;
            cur_span := qspan
          end
        end;
        publish ();
        certify ();
        loop ()
  in
  loop ();
  (* A drained run holds no alive matches: everything left is final.
     A stopped run emits nothing more — its remaining answers travel
     only in the buffered (partial) reply. *)
  (match cert with
  | Some c when not !stopped -> Certify.flush_all c topk
  | Some _ | None -> ());
  stats.wall_ns <- Int64.sub (now_ns ()) t0;
  let answers = Topk_set.entries topk in
  if obs_on then begin
    Obs.attr obs qspan "answers" (float_of_int (List.length answers));
    Obs.attr obs qspan "server_ops" (float_of_int stats.server_ops);
    if !stopped then Obs.attr obs qspan "partial" 1.0;
    Obs.finish obs qspan
  end;
  { answers; stats; partial = !stopped }

(* Threshold mode: no top-k set — a fixed bar prunes instead, and every
   completed match above the bar is an answer (best score per root). *)
let run_above ?(config = Config.default) (plan : Plan.t) ~threshold =
  let { Config.routing; queue_policy; use_cache; should_stop; _ } = config in
  validate_plan plan;
  let cache =
    if not use_cache then None
    else match config.cache with Some _ as c -> c | None -> Some (Candidate_cache.create ())
  in
  let stats = Stats.create () in
  let t0 = now_ns () in
  let queue : Partial_match.t Pqueue.t = Pqueue.create () in
  let seq = ref 0 in
  let next_id =
    let n = ref 0 in
    fun () -> incr n; !n
  in
  let answers : (int, Topk_set.entry) Hashtbl.t = Hashtbl.create 64 in
  let record (pm : Partial_match.t) =
    stats.completed <- stats.completed + 1;
    if pm.score > threshold then begin
      let root = Partial_match.root_binding pm in
      let entry =
        {
          Topk_set.root;
          score = pm.score;
          match_id = pm.id;
          bindings = Array.copy pm.bindings;
          progress = plan.n_servers;
        }
      in
      match Hashtbl.find_opt answers root with
      | Some e when e.Topk_set.score >= pm.score -> ()
      | Some _ | None -> Hashtbl.replace answers root entry
    end
  in
  let hopeless (pm : Partial_match.t) = pm.max_possible <= threshold in
  let enqueue (pm : Partial_match.t) =
    incr seq;
    Pqueue.push queue ~tie:pm.score
      (Strategy.priority queue_policy plan ~seq:!seq ~server:None pm)
      pm
  in
  let single_node = plan.n_servers = 1 in
  let checking = Invariants.enabled () in
  List.iter
    (fun pm ->
      if checking then Invariants.check_root plan pm;
      if single_node then record pm
      else if hopeless pm then
        stats.matches_pruned <- stats.matches_pruned + 1
      else enqueue pm)
    (Server.initial_matches plan stats ~next_id);
  let stopped = ref false in
  let rec loop () =
    match Pqueue.pop queue with
    | None -> ()
    | Some _ when should_stop () -> stopped := true
    | Some pm ->
        let server = Strategy.choose_next routing plan ~threshold pm in
        stats.routing_decisions <- stats.routing_decisions + 1;
        let { Server.extensions; died = _ } =
          Server.process ?cache plan stats ~next_id pm ~server
        in
        if checking then
          List.iter (Invariants.check_extension plan ~parent:pm) extensions;
        List.iter
          (fun ext ->
            if Partial_match.is_complete ext ~full_mask:plan.full_mask then
              record ext
            else if hopeless ext then
              stats.matches_pruned <- stats.matches_pruned + 1
            else enqueue ext)
          extensions;
        loop ()
  in
  loop ();
  stats.wall_ns <- Int64.sub (now_ns ()) t0;
  let sorted =
    List.sort
      (fun (a : Topk_set.entry) b ->
        match Float.compare b.score a.score with
        | 0 -> Int.compare a.root b.root
        | c -> c)
      (Hashtbl.fold (fun _ e acc -> e :: acc) answers [])
  in
  { answers = sorted; stats; partial = !stopped }

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%a@," Stats.pp r.stats;
  if r.partial then Format.fprintf ppf "(partial: run stopped early)@,";
  List.iteri
    (fun i (e : Topk_set.entry) ->
      Format.fprintf ppf "%d. root=%d score=%.4f@," (i + 1) e.root e.score)
    r.answers;
  Format.fprintf ppf "@]"
