type costs = { op_cost : float; route_cost : float }

type result = {
  makespan : float;
  engine : Engine.result;
  busy_time : float;
}

let priced (engine : Engine.result) ~costs =
  let ops = float_of_int engine.stats.server_ops in
  let decisions = float_of_int engine.stats.routing_decisions in
  let makespan = (ops *. costs.op_cost) +. (decisions *. costs.route_cost) in
  { makespan; engine; busy_time = makespan }

let simulate_s ?config ~costs plan ~k =
  priced (Engine.run ?config plan ~k) ~costs

(* --- Event-driven Whirlpool-M simulation. --- *)

module Event_heap = struct
  type 'a t = (float * int * 'a) Pqueue.t
  (* Pqueue is a max-queue; negate times for earliest-first. *)

  let create () : 'a t = Pqueue.create ()
  let push (h : 'a t) time seq x = Pqueue.push h (-.time) (time, seq, x)
  let pop (h : 'a t) = Pqueue.pop h
end

type thread_state = {
  queue : Partial_match.t Pqueue.t;
  mutable busy : bool;
  mutable current : Partial_match.t option;
  mutable in_ready : bool;
}

let simulate_m ?(config = Engine.Config.default) ~costs ~processors
    (plan : Plan.t) ~k =
  let { Engine.Config.routing; queue_policy; _ } = config in
  if processors < 1 then invalid_arg "Sim_exec.simulate_m: processors >= 1";
  let floor = Float.neg_infinity in
  let stats = Stats.create () in
  let topk = Topk_set.create ~k ~admit_partial:(Plan.admits_partial_answers plan) in
  let next_id =
    let n = ref 0 in
    fun () -> incr n; !n
  in
  let n_threads = plan.n_servers in
  (* Thread 0 is the router; threads 1 .. n-1 are the servers with the
     same ids as their pattern nodes. *)
  let threads =
    Array.init n_threads (fun _ ->
        { queue = Pqueue.create (); busy = false; current = None; in_ready = false })
  in
  let ready = Queue.create () in
  let free_cpus = ref (min processors n_threads) in
  let events : int Event_heap.t = Event_heap.create () in
  let event_seq = ref 0 in
  let seq = ref 0 in
  let makespan = ref 0.0 in
  let busy_time = ref 0.0 in
  let cost_of thread = if thread = 0 then costs.route_cost else costs.op_cost in
  (* The root server is the router's seed cursor: the root evaluation
     itself is charged as one op of lead time. *)
  let seeds = Seeds.create plan stats in
  let mark_ready t =
    let th = threads.(t) in
    let seeding = t = 0 && Seeds.head seeds > Float.neg_infinity in
    if (not th.busy) && (not th.in_ready) && (seeding || not (Pqueue.is_empty th.queue))
    then begin
      th.in_ready <- true;
      Queue.push t ready
    end
  in
  let enqueue t pm =
    incr seq;
    let server = if t = 0 then None else Some t in
    Pqueue.push threads.(t).queue ~tie:pm.Partial_match.score
      (Strategy.priority queue_policy plan ~seq:!seq ~server pm)
      pm;
    mark_ready t
  in
  (* Pop the next match a thread should actually work on: consulting the
     top-k set is part of picking work up, so matches pruned here cost no
     simulated time — exactly as the real servers check the set before
     processing.  The router pops through the seed cursor, as
     Whirlpool-S does; seeds that die cost no time. *)
  let rec pop_alive th =
    match Pqueue.pop th.queue with
    | Some pm when Server.prune stats topk ~floor ~trace:None pm -> pop_alive th
    | top -> top
  in
  let pop_router () =
    Seeds.pop seeds topk threads.(0).queue ~next_id ~trace:None
      ~stop:Engine.never_stop ~popped:ignore
  in
  let dispatch now =
    while !free_cpus > 0 && not (Queue.is_empty ready) do
      let t = Queue.pop ready in
      let th = threads.(t) in
      th.in_ready <- false;
      match if t = 0 then pop_router () else pop_alive th with
      | None -> ()
      | Some pm ->
          th.busy <- true;
          th.current <- Some pm;
          decr free_cpus;
          busy_time := !busy_time +. cost_of t;
          incr event_seq;
          Event_heap.push events (now +. cost_of t) !event_seq t
    done
  in
  let handle_router pm =
    let server =
      Strategy.choose_next routing plan ~threshold:(Topk_set.threshold topk) pm
    in
    stats.routing_decisions <- stats.routing_decisions + 1;
    enqueue server pm
  in
  let handle_server server pm =
    Server.settle plan stats topk ~floor ~trace:None pm ~server
      (Server.process plan stats ~next_id pm ~server)
      ~keep:(enqueue 0)
  in
  if queue_policy <> Strategy.Max_final_score then
    List.iter
      (fun pm -> if Seeds.admit seeds topk pm then enqueue 0 pm)
      (Seeds.drain seeds ~next_id);
  mark_ready 0;
  makespan := costs.op_cost;
  dispatch !makespan;
  let rec loop () =
    match Event_heap.pop events with
    | None -> ()
    | Some (time, _, t) ->
        makespan := time;
        let th = threads.(t) in
        let pm = Option.get th.current in
        th.current <- None;
        th.busy <- false;
        incr free_cpus;
        if t = 0 then handle_router pm else handle_server t pm;
        mark_ready t;
        dispatch time;
        loop ()
  in
  loop ();
  stats.wall_ns <- 0L;
  {
    makespan = !makespan;
    engine = { Engine.answers = Topk_set.entries topk; stats; partial = false };
    busy_time = !busy_time;
  }
