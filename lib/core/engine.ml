module Obs = Wp_obs.Obs

type result = {
  answers : Topk_set.entry list;
  stats : Stats.t;
  partial : bool;
}

let never_stop () = false

let now_ns = Clock.now_ns

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
    should_stop : unit -> bool;
    obs : Obs.t;
    on_certified : Topk_set.entry -> unit;
  }

  let default =
    {
      algo = Whirlpool;
      routing = Strategy.Min_alive;
      queue_policy = Strategy.Max_final_score;
      should_stop = never_stop;
      obs = Obs.disabled;
      on_certified = no_certify;
    }

  let with_algo algo t = { t with algo }
  let with_routing routing t = { t with routing }
  let with_queue_policy queue_policy t = { t with queue_policy }
  let with_should_stop should_stop t = { t with should_stop }
  let with_on_certified on_certified t = { t with on_certified }
  let with_obs obs t = { t with obs }
  let with_cache (_ : unit option) t = t
end

(* [Plan.compile]'s gate, run again; only perfbench's oracle calls it. *)
let validate_plan (plan : Plan.t) =
  Wp_analysis.Lint.validate_exn ~config:plan.config ~specs:plan.specs
    plan.pattern;
  if Invariants.enabled () then Invariants.check_table plan.scores

(* The pop loop behind [run] and [run_above], which differ only in the
   top-k set they hand it. *)
let run_set (config : Config.t) (plan : Plan.t) topk =
  let { Config.routing; queue_policy; should_stop; obs; _ } = config in
  let stats = Stats.create () in
  let t0 = now_ns () in
  (* Observability: a root span for the run and a child per server
     visit; engine events attach to the innermost open span.  All of it
     reads the counters without writing them, so a disabled (or
     unsampled) context leaves the run bit-identical.  Every event site tests [tracing ()] first, so a run
     without a live span builds no event. *)
  let obs_on = Obs.enabled obs in
  let qspan = if obs_on then Obs.root obs "query" else None in
  Obs.attr obs qspan "k" (float_of_int (Topk_set.k topk));
  Obs.attr obs qspan "servers" (float_of_int plan.n_servers);
  let cur_span = ref qspan in
  let tracing () = Option.is_some !cur_span in
  let emit e = Obs.emit obs !cur_span e in
  (* Streaming certification: when the caller installed an
     [on_certified] hook, push entries the moment no alive match can
     beat them.  The physical-equality gate on [no_certify] keeps the
     default path free.  At every certification point the queue and
     the seed cursor hold exactly the alive matches, so under the
     default max-final-score policy, whose priority is [max_possible],
     the queue's top priority is the certification bar; other policies
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
  (* The root server.  Under the max-final-score policy every live root
     waits in the cursor until its class beats the queue's top; the
     other policies order the queue by something other than the bound,
     so they take every live seed up front. *)
  let seeds = Seeds.create plan stats in
  (* The unopened roots are alive too; the cursor's head bounds them. *)
  let certify () =
    match cert with
    | None -> ()
    | Some c ->
        let bound =
          match alive with
          | Some a -> Certify.Alive.bound a
          | None -> Pqueue.max_priority queue
        in
        Certify.flush c topk ~bound:(Float.max bound (Seeds.head seeds))
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
  if queue_policy <> Strategy.Max_final_score then
    List.iter
      (fun pm -> if Seeds.admit seeds topk pm then enqueue pm)
      (Seeds.drain seeds ~next_id);
  let trace = if tracing () then Some emit else None in
  let visit (pm : Partial_match.t) server =
    Server.settle plan stats topk ~trace pm ~server
      (Server.process plan stats ~next_id pm ~server)
      ~keep:enqueue
  in
  let visit_at (pm : Partial_match.t) server =
    if not obs_on then visit pm server
    else
      Server.profiled obs ~parent:qspan stats ~server (fun vspan ->
          if vspan <> None then cur_span := vspan;
          visit pm server;
          cur_span := qspan)
  in
  (* Certification points fall between pops: before each step that has
     work, where the queue and the cursor hold exactly the alive
     matches.  Deadline / cancellation is checked there too: a stopped
     run abandons the queue — the top-k set already holds the best
     answers known so far, returned flagged [partial]. *)
  let stopped = ref false in
  let stop () =
    certify ();
    should_stop () && (stopped := true; true)
  in
  let popped (pm : Partial_match.t) =
    cert_remove pm;
    if tracing () then
      emit
        (Obs.Popped
           { id = pm.id; score = pm.score; max_possible = pm.max_possible })
  in
  let rec loop () =
    match Seeds.pop seeds topk queue ~next_id ~trace ~stop ~popped with
    | None -> ()
    | Some pm ->
        let server =
          Strategy.choose_next routing plan
            ~threshold:(Topk_set.threshold topk) pm
        in
        stats.routing_decisions <- stats.routing_decisions + 1;
        if tracing () then emit (Obs.Routed { id = pm.id; server });
        visit_at pm server;
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

let run ?(config = Config.default) plan ~k =
  run_set config plan
    (Topk_set.create ~k ~admit_partial:(Plan.admits_partial_answers plan) ())

(* Threshold mode is the pop loop over a set with the bar as its floor
   and room for every root: the set keeps one entry per root, and its
   strict [<] floor never prunes a match that could still score above
   the bar. *)
let run_above ?(config = Config.default) (plan : Plan.t) ~threshold =
  let config = { config with on_certified = no_certify } in
  let r =
    run_set config plan
      (Topk_set.create ~floor:threshold
         ~k:(max 1 (Array.length plan.roots))
         ~admit_partial:(Plan.admits_partial_answers plan) ())
  in
  {
    r with
    answers =
      List.filter (fun (e : Topk_set.entry) -> e.score > threshold) r.answers;
  }
