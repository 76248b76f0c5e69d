let now_ns = Clock.now_ns

let run ?order ?(config = Engine.Config.default) ?(prune = true)
    (plan : Plan.t) ~k =
  let { Engine.Config.queue_policy; should_stop; _ } = config in
  let order =
    match order with
    | Some o -> o
    | None -> Strategy.default_static_order plan
  in
  if Array.length order <> plan.n_servers - 1 then
    invalid_arg "Lockstep.run: order must cover every non-root server";
  let stats = Stats.create () in
  let t0 = now_ns () in
  let topk = Topk_set.create ~k ~admit_partial:(Plan.admits_partial_answers plan) () in
  let next_id =
    let n = ref 0 in
    fun () -> incr n; !n
  in
  let seq = ref 0 in
  let stopped = ref false in
  (* LockStep-NoPrun offers nothing to the top-k set: its completed
     matches wait for a final sort. *)
  let completed_noprune = ref [] in
  let noprune_alive pm =
    if Partial_match.is_complete pm ~full_mask:plan.full_mask then begin
      stats.completed <- stats.completed + 1;
      completed_noprune := pm :: !completed_noprune;
      false
    end
    else true
  in
  let seeds = Seeds.create plan stats in
  let current =
    ref
      (List.filter
         (if prune then Seeds.admit seeds topk else noprune_alive)
         (Seeds.drain seeds ~next_id))
  in
  Array.iter
    (fun server ->
      let stage : Partial_match.t Pqueue.t = Pqueue.create () in
      List.iter
        (fun (pm : Partial_match.t) ->
          incr seq;
          Pqueue.push stage ~tie:pm.score
            (Strategy.priority queue_policy plan ~seq:!seq ~server:(Some server) pm)
            pm)
        !current;
      let survivors = ref [] in
      let keep ext = survivors := ext :: !survivors in
      (let rec drain () =
        match Pqueue.pop stage with
        | None -> ()
        | Some _ when should_stop () ->
            (* Deadline / cancellation: abandon the rest of this stage;
               with no survivors every later stage is empty, and the
               answers known so far are returned flagged [partial]. *)
            stopped := true
        | Some pm ->
            if not (prune && Server.prune stats topk ~trace:None pm)
            then begin
              stats.routing_decisions <- stats.routing_decisions + 1;
              let outcome = Server.process plan stats ~next_id pm ~server in
              if prune then
                Server.settle plan stats topk ~trace:None pm ~server outcome
                  ~keep
              else
                List.iter
                  (fun ext -> if noprune_alive ext then keep ext)
                  outcome.extensions
            end;
            drain ()
      in
      drain ())
      [@wp.bounded
        "every pass pops one staged match and extensions accumulate in \
         [survivors], never back into [stage]"];
      current := if !stopped then [] else List.rev !survivors)
    order;
  let answers =
    if prune then Topk_set.entries topk
    else begin
      let final = Topk_set.create ~k ~admit_partial:true () in
      List.iter (fun pm -> Topk_set.consider final ~complete:true pm)
        !completed_noprune;
      Topk_set.entries final
    end
  in
  stats.wall_ns <- Int64.sub (now_ns ()) t0;
  { Engine.answers; stats; partial = !stopped }
