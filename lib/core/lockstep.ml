let now_ns = Clock.now_ns

let run ?order ?(queue_policy = Strategy.Max_final_score) ?(prune = true)
    ?(should_stop = Engine.never_stop) (plan : Plan.t) ~k =
  let order =
    match order with
    | Some o -> o
    | None -> Strategy.default_static_order plan
  in
  if Array.length order <> plan.n_servers - 1 then
    invalid_arg "Lockstep.run: order must cover every non-root server";
  let stats = Stats.create () in
  let t0 = now_ns () in
  let topk = Topk_set.create ~k ~admit_partial:(Plan.admits_partial_answers plan) in
  let next_id =
    let n = ref 0 in
    fun () -> incr n; !n
  in
  let seq = ref 0 in
  let stopped = ref false in
  let consider_and_keep pm =
    let complete = Partial_match.is_complete pm ~full_mask:plan.full_mask in
    if prune then Topk_set.consider topk ~complete pm;
    if complete then begin
      stats.completed <- stats.completed + 1;
      None
    end
    else if prune && Topk_set.should_prune topk pm then begin
      stats.matches_pruned <- stats.matches_pruned + 1;
      None
    end
    else Some pm
  in
  let completed_noprune = ref [] in
  (* In the no-pruning variant, completed matches are collected and the
     winners picked by a final sort. *)
  let collect pm =
    if Partial_match.is_complete pm ~full_mask:plan.full_mask then
      completed_noprune := pm :: !completed_noprune
  in
  let handle pm =
    match consider_and_keep pm with
    | Some alive -> Some alive
    | None ->
        if not prune then collect pm;
        None
  in
  let current =
    ref (List.filter_map handle (Seeds.drain (Seeds.create plan stats) ~next_id))
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
      (let rec drain () =
        match Pqueue.pop stage with
        | None -> ()
        | Some _ when should_stop () ->
            (* Deadline / cancellation: abandon the rest of this stage;
               with no survivors every later stage is empty, and the
               answers known so far are returned flagged [partial]. *)
            stopped := true
        | Some pm ->
            if prune && Topk_set.should_prune topk pm then
              stats.matches_pruned <- stats.matches_pruned + 1
            else begin
              stats.routing_decisions <- stats.routing_decisions + 1;
              let { Server.extensions; died } =
                Server.process plan stats ~next_id pm ~server
              in
              if died && prune then Topk_set.retract topk pm;
              List.iter
                (fun ext ->
                  match handle ext with
                  | Some alive -> survivors := alive :: !survivors
                  | None -> ())
                extensions
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
      let final = Topk_set.create ~k ~admit_partial:true in
      List.iter (fun pm -> Topk_set.consider final ~complete:true pm)
        !completed_noprune;
      Topk_set.entries final
    end
  in
  stats.wall_ns <- Int64.sub (now_ns ()) t0;
  { Engine.answers; stats; partial = !stopped }
