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

  let all_algos = [ Whirlpool; Whirlpool_mt; Lockstep; Lockstep_noprun; Twig ]

  let algo_to_string = function
    | Whirlpool -> "whirlpool-s"
    | Whirlpool_mt -> "whirlpool-m"
    | Lockstep -> "lockstep"
    | Lockstep_noprun -> "lockstep-noprun"
    | Twig -> "twig"

  let algo_of_string = function
    | "whirlpool-s" | "ws" -> Some Whirlpool
    | "whirlpool-m" | "wm" -> Some Whirlpool_mt
    | "lockstep" -> Some Lockstep
    | "lockstep-noprun" | "noprun" -> Some Lockstep_noprun
    | "twig" -> Some Twig
    | _ -> None

  type t = {
    algo : algo;
    routing : Strategy.routing;
    queue_policy : Strategy.queue_policy;
    batch : int;
    should_stop : unit -> bool;
    obs : Obs.t;
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
      should_stop = never_stop;
      obs = Obs.disabled;
      prune_bound = no_bound;
      publish_threshold = no_publish;
      on_certified = no_certify;
    }

  let with_algo algo t = { t with algo }
  let with_routing routing t = { t with routing }
  let with_queue_policy queue_policy t = { t with queue_policy }
  let with_batch batch t = { t with batch }
  let with_should_stop should_stop t = { t with should_stop }
  let with_prune_bound prune_bound t = { t with prune_bound }
  let with_publish_threshold publish_threshold t = { t with publish_threshold }
  let with_on_certified on_certified t = { t with on_certified }
  let with_obs obs t = { t with obs }
  let with_cache (_ : unit option) t = t
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
  let stats = Stats.create () in
  let t0 = now_ns () in
  (* Observability: a root span for the run, a child per iteration
     batch, a grandchild per server visit; engine events attach to the
     innermost open span.  All of it reads the counters without writing
     them, so a disabled (or unsampled) context leaves the run
     bit-identical.  Every event site tests [tracing ()] first, so a run
     without a live span builds no event. *)
  let obs_on = Obs.enabled obs in
  let qspan = if obs_on then Obs.root obs "query" else None in
  Obs.attr obs qspan "k" (float_of_int k);
  Obs.attr obs qspan "servers" (float_of_int plan.n_servers);
  let cur_span = ref qspan in
  let tracing () = Option.is_some !cur_span in
  let emit e = Obs.emit obs !cur_span e in
  let topk = Topk_set.create ~k ~admit_partial:(Plan.admits_partial_answers plan) in
  (* Streaming certification: when the caller installed an
     [on_certified] hook, push entries the moment no alive match can
     beat them.  The physical-equality gate on [no_certify] keeps the
     default path free.  At every certification point the queue holds
     exactly the alive matches, so under the default max-final-score
     policy, whose priority is [max_possible], the queue's top priority
     is the certification bar; other policies order the queue
     differently and track the alive set aside. *)
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
      Server.process plan stats ~next_id pm ~server
    in
    if checking then
      List.iter (Invariants.check_extension plan ~parent:pm) extensions;
    if died then begin
      if tracing () then emit (Obs.Died { id = pm.id; server });
      Topk_set.retract topk pm
    end;
    List.iter
      (fun (ext : Partial_match.t) ->
        let complete = Partial_match.is_complete ext ~full_mask:plan.full_mask in
        if tracing () then
          emit
            (Obs.Extended
               {
                 parent = pm.id;
                 id = ext.id;
                 server;
                 bound = Partial_match.bound ext server <> None;
               });
        Topk_set.consider topk ~complete ext;
        if complete then begin
          if tracing () then
            emit (Obs.Completed { id = ext.id; score = ext.score });
          stats.completed <- stats.completed + 1
        end
        else if Topk_set.should_prune topk ext || xpruned ext then begin
          if tracing () then emit (Obs.Pruned { id = ext.id });
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
      let c0 = stats.comparisons in
      process_here pm server;
      Obs.visit obs ~server
        ~comparisons:(stats.comparisons - c0)
        ~ns:(Int64.sub (now_ns ()) v0);
      Obs.attr obs vspan "server" (float_of_int server);
      Obs.finish obs vspan;
      cur_span := saved
    end
  in
  (* Bulk adaptivity (paper Section 6.3.3): a routing decision made for
     a popped match is reused for up to [batch - 1] following pops that
     have visited the same servers (and so admit the same choice).  Any
     other pop ends the batch.  Plain ints, so deciding allocates
     nothing. *)
  let batch_server = ref 0 and batch_mask = ref 0 and batch_left = ref 0 in
  let bspan = ref None in
  let end_batch () =
    batch_left := 0;
    if obs_on then begin
      Obs.finish obs !bspan;
      bspan := None;
      cur_span := qspan
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
        let in_batch = !batch_left > 0 && pm.visited_mask = !batch_mask in
        if in_batch then decr batch_left else end_batch ();
        if tracing () then
          emit
            (Obs.Popped
               { id = pm.id; score = pm.score; max_possible = pm.max_possible });
        if Topk_set.should_prune topk pm || xpruned pm then begin
          if tracing () then emit (Obs.Pruned { id = pm.id });
          stats.matches_pruned <- stats.matches_pruned + 1
        end
        else begin
          if not in_batch then begin
            batch_server :=
              Strategy.choose_next routing plan
                ~threshold:(Topk_set.threshold topk) pm;
            batch_mask := pm.visited_mask;
            batch_left := batch - 1;
            stats.routing_decisions <- stats.routing_decisions + 1
          end;
          let server = !batch_server in
          if tracing () then emit (Obs.Routed { id = pm.id; server });
          if obs_on && not in_batch then begin
            bspan := Obs.child obs ~parent:qspan "batch";
            Obs.attr obs !bspan "server" (float_of_int server);
            if !bspan <> None then cur_span := !bspan
          end;
          process_at pm server
        end;
        if !batch_left = 0 then end_batch ();
        publish ();
        certify ();
        loop ()
  in
  loop ();
  end_batch ();
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

(* Threshold mode is [run] with the bar as a fixed external prune
   bound and room for every root: the top-k set keeps one entry per
   root, and the strict [<] prune never drops a match that could still
   score above the bar. *)
let run_above ?(config = Config.default) (plan : Plan.t) ~threshold =
  let config =
    {
      config with
      prune_bound = (fun () -> threshold);
      publish_threshold = no_publish;
      on_certified = no_certify;
    }
  in
  let r = run ~config plan ~k:(max 1 (Array.length plan.roots)) in
  {
    r with
    answers =
      List.filter (fun (e : Topk_set.entry) -> e.score > threshold) r.answers;
  }
