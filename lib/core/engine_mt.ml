(* Whirlpool-M, written against the Sync signature so the identical
   engine code runs on real domains (Sync.Real) and under the
   deterministic instrumented scheduler (Sched) for race detection and
   schedule exploration.

   Lock hierarchy (checked by Race): the queue mutexes (rank 0) below
   topk.mutex (rank 1); in fact no thread ever holds two locks at
   once.  The observability context's mutex is a real [Mutex.t] (never
   S.mutex): it is leaf-only, taken with no S-operation inside the
   critical section, so it cannot participate in a Sched-visible
   deadlock and stays invisible to schedule exploration.  It also
   serializes every domain's engine events.
   Shutdown protocol: [pending] counts partial matches alive in queues
   or in flight, plus a token the router holds until its seed cursor is
   empty; workers and the router increment it *before* retiring what
   the increment replaces, so the count reaches zero exactly when no
   work remains; the thread that decrements it to zero raises the stop
   flag and broadcasts all queues awake. *)

module Obs = Wp_obs.Obs

module Fault = struct
  type t = Drop_topk_lock | Retire_early | Skip_pending_incr

  let to_string = function
    | Drop_topk_lock -> "drop-topk-lock"
    | Retire_early -> "retire-early"
    | Skip_pending_incr -> "skip-pending-incr"

  let of_string = function
    | "drop-topk-lock" -> Some Drop_topk_lock
    | "retire-early" -> Some Retire_early
    | "skip-pending-incr" -> Some Skip_pending_incr
    | _ -> None

  let all = [ Drop_topk_lock; Retire_early; Skip_pending_incr ]
  let pp ppf f = Format.pp_print_string ppf (to_string f)
end

(* Shared-location names reported by the instrumented build; the topk
   set is one logical location because every engine access goes through
   with_topk. *)
let topk_loc = "topk.set"
let pending_loc = "pending"

module Make (S : Sync.S) = struct
  (* A blocking priority queue: pop waits until an element arrives or
     the shared stop flag is raised. *)
  module Shared_queue = struct
    type 'a t = {
      queue : 'a Pqueue.t;
      mutex : S.mutex;
      cond : S.condition;
      mutable seq : int;
      state_loc : string;  (* race-detection name for seq + heap *)
    }

    let create name =
      {
        queue = Pqueue.create ();
        mutex = S.mutex (name ^ ".mutex");
        cond = S.condition (name ^ ".cond");
        seq = 0;
        state_loc = name ^ ".state";
      }

    (* Exception-safe critical section: a raising callback (or a Pqueue
       bug) must not leave the mutex held and deadlock the other
       domains. *)
    let with_lock t f =
      S.lock t.mutex;
      Fun.protect ~finally:(fun () -> S.unlock t.mutex) f

    let push t ~tie ~priority_of x =
      with_lock t (fun () ->
          t.seq <- t.seq + 1;
          S.note_write t.state_loc;
          Pqueue.push t.queue ~tie (priority_of ~seq:t.seq x) x;
          S.signal t.cond)

    (* [None] without waiting while [yield] holds of the queue (the
       router's seed cursor beats its top). *)
    let pop ?(yield = fun _ -> false) t ~stopped =
      with_lock t (fun () ->
          let rec wait () =
            S.note_write t.state_loc;
            match if yield t.queue then None else Pqueue.pop t.queue with
            | Some x -> Some x
            | None ->
                if stopped () || yield t.queue then None
                else begin
                  S.wait t.cond t.mutex;
                  wait ()
                end
          in
          wait ())

    let wake_all t = with_lock t (fun () -> S.broadcast t.cond)
  end

  type shared = {
    plan : Plan.t;
    routing : Strategy.routing;
    queue_policy : Strategy.queue_policy;
    topk : Topk_set.t;
    topk_mutex : S.mutex;
    router_queue : Partial_match.t Shared_queue.t;
    server_queues : Partial_match.t Shared_queue.t array;  (* index 0 unused *)
    seeds : Seeds.t;  (* the root server; only the router touches it *)
    pending : S.atomic_int;  (* see the shutdown protocol above *)
    stop : S.atomic_int;
    partial : S.atomic_int;  (* set when should_stop cut the run short *)
    should_stop : unit -> bool;
    cert : (Certify.t * Certify.Alive.t) option;
        (* streaming certification; the per-server queues hide the
           alive set's maximum, so it is tracked in an [Alive] heap.
           The alive-set operations and [newly_certified] run under
           topk_mutex, but only the router thread emits (outside the
           lock), so the streamed order is total and a blocking
           callback never stalls a worker holding a lock *)
    next_id : S.atomic_int;
    obs : Obs.t;
    obs_on : bool;
    qspan : Obs.span option;
        (* the run's root span: parent of visits, holder of events *)
    drop_topk_lock : bool;
    retire_early : bool;
    skip_pending_incr : bool;
  }

  let stopped shared () = S.get shared.stop <> 0

  (* Every engine event lands on the root span.  Call sites test
     [tracing] before building the event, so a run without a live root
     span allocates none; the context's mutex orders all domains'
     events. *)
  let tracing shared = Option.is_some shared.qspan
  let emit shared e = Obs.emit shared.obs shared.qspan e

  let finish shared =
    S.set shared.stop 1;
    Shared_queue.wake_all shared.router_queue;
    Array.iter Shared_queue.wake_all shared.server_queues

  (* Decrement the in-flight count; the thread that reaches zero shuts
     the system down. *)
  let retire shared =
    if S.fetch_and_add shared.pending (-1) = 1 then finish shared

  (* Cooperative cancellation (deadline expiry): the first thread that
     observes the hook firing marks the result partial and raises the
     global stop flag; every queue then drains without processing, so
     no thread can hang on a request whose deadline has passed. *)
  let check_deadline shared =
    shared.should_stop ()
    && begin
         S.set shared.partial 1;
         finish shared;
         true
       end

  let router_priority shared ~seq pm =
    Strategy.priority shared.queue_policy shared.plan ~seq ~server:None pm

  let server_priority shared server ~seq pm =
    Strategy.priority shared.queue_policy shared.plan ~seq ~server:(Some server)
      pm

  let with_topk shared f =
    if shared.drop_topk_lock then begin
      S.note_write topk_loc;
      f shared.topk
    end
    else begin
      S.lock shared.topk_mutex;
      Fun.protect
        ~finally:(fun () -> S.unlock shared.topk_mutex)
        (fun () ->
          S.note_write topk_loc;
          f shared.topk)
    end

  (* Events raised under topk.mutex wait in a per-thread buffer, emitted
     by [flush] once the lock is released: the Obs mutex (rank 0) ranks
     below topk.mutex (rank 1). *)
  let buffered shared =
    if not (tracing shared) then (None, ignore)
    else begin
      let buf = ref [] in
      ( Some (fun e -> buf := e :: !buf),
        fun () ->
          List.iter (emit shared) (List.rev !buf);
          buf := [] )
    end

  (* The certification alive set; both run under topk.mutex. *)
  let alive_add shared pm =
    match shared.cert with
    | Some (_, alive) -> Certify.Alive.add alive pm
    | None -> ()

  let alive_remove shared (pm : Partial_match.t) =
    match shared.cert with
    | Some (_, alive) -> Certify.Alive.remove alive pm.id
    | None -> ()

  (* Under topk.mutex: a pruned match leaves the alive set too. *)
  let prune shared stats ~trace pm topk =
    Server.prune stats topk ~trace pm
    && (alive_remove shared pm; true)

  (* The router owns the seed cursor and the [pending] token.  Under
     the max-final-score policy it opens the head class's next root
     whenever that beats its queue's top, and routes the seed at once,
     as Whirlpool-S pops it; under the other policies it queues every
     live seed first. *)
  let router_loop shared (stats : Stats.t) =
    let next_id () = S.fetch_and_add shared.next_id 1 in
    let trace, flush = buffered shared in
    let holding = ref true in
    (* [take] opens seeds inside the top-k section that admits them;
       those that stay alive join the alive set under it, and [pending]
       before the token goes. *)
    let admit take =
      S.note_write "stats.router";
      let kept =
        with_topk shared (fun topk ->
            List.filter
              (fun pm ->
                Seeds.admit shared.seeds topk pm
                && (alive_add shared pm; true))
              (take topk))
      in
      List.iter (fun _ -> S.incr shared.pending) kept;
      if !holding && Seeds.head shared.seeds = Float.neg_infinity then begin
        holding := false;
        retire shared
      end;
      kept
    in
    let open_next topk =
      Option.to_list (Seeds.open_next shared.seeds topk ~next_id)
    in
    (* The queue's top, or the cursor's next root when that beats it. *)
    let rec next () =
      let yield q = !holding && Seeds.beats shared.seeds q in
      match Shared_queue.pop shared.router_queue ~yield ~stopped:(stopped shared) with
      | None when !holding && not (stopped shared ()) -> (
          match admit open_next with [ pm ] -> Some pm | _ -> next ())
      | top -> top
    in
    List.iter
      (fun pm ->
        Shared_queue.push shared.router_queue ~tie:pm.Partial_match.score
          ~priority_of:(router_priority shared) pm)
      (admit (fun _ ->
           if shared.queue_policy = Strategy.Max_final_score then []
           else Seeds.drain shared.seeds ~next_id));
    let rec loop () =
      match next () with
      | None -> ()
      | Some _ when check_deadline shared -> loop ()
      | Some pm ->
          S.note_write "stats.router";
          if tracing shared then
            emit shared
              (Obs.Popped
                 {
                   id = pm.Partial_match.id;
                   score = pm.score;
                   max_possible = pm.max_possible;
                 });
          let pruned, threshold, certified =
            with_topk shared (fun topk ->
                let pruned = prune shared stats ~trace pm topk in
                let certified =
                  match shared.cert with
                  | Some (c, alive) ->
                      (* The unopened roots are alive too. *)
                      Certify.newly_certified c topk
                        ~bound:
                          (Float.max (Certify.Alive.bound alive)
                             (Seeds.head shared.seeds))
                  | None -> []
                in
                (pruned, Topk_set.threshold topk, certified))
          in
          flush ();
          (* Stream outside the lock: the callback may block on a
             socket.  Only this thread emits, so order is total. *)
          (match shared.cert with
          | Some (c, _) -> List.iter (Certify.emit c) certified
          | None -> ());
          if pruned then retire shared
          else begin
            let server =
              Strategy.choose_next shared.routing shared.plan ~threshold pm
            in
            stats.routing_decisions <- stats.routing_decisions + 1;
            if tracing shared then
              emit shared (Obs.Routed { id = pm.Partial_match.id; server });
            Shared_queue.push shared.server_queues.(server)
              ~tie:pm.Partial_match.score
              ~priority_of:(server_priority shared server) pm
          end;
          loop ()
    in
    loop ()

  let server_loop shared server ~stats_loc (stats : Stats.t) =
    let next_id () = S.fetch_and_add shared.next_id 1 in
    let trace, flush = buffered shared in
    (* A surviving extension enters the certification alive set under
       the same lock as the keep decision. *)
    let kept = ref [] in
    let keep ext =
      alive_add shared ext;
      kept := ext :: !kept
    in
    let rec loop () =
      match
        Shared_queue.pop shared.server_queues.(server)
          ~stopped:(stopped shared)
      with
      | None -> ()
      | Some _ when check_deadline shared -> loop ()
      | Some pm ->
          S.note_write stats_loc;
          let pruned = with_topk shared (prune shared stats ~trace pm) in
          flush ();
          if pruned then retire shared
          else begin
            let outcome =
              if not shared.obs_on then
                Server.process shared.plan stats ~next_id pm ~server
              else
                Server.profiled shared.obs ~parent:shared.qspan stats ~server
                  (fun _ -> Server.process shared.plan stats ~next_id pm ~server)
            in
            (* One top-k lock per visit.  The consumed match leaves the
               certification alive set only after its surviving
               extensions entered it — the same register-before-retire
               discipline as [pending], so the certification bar never
               dips below a score that a descendant could still
               reach. *)
            with_topk shared (fun topk ->
                Server.settle shared.plan stats topk ~trace pm ~server
                  outcome ~keep;
                alive_remove shared pm);
            flush ();
            (* Register the new in-flight matches before retiring the
               consumed one, so the count never dips to zero early.
               (The Retire_early / Skip_pending_incr faults break
               exactly this protocol, for detector validation.) *)
            if shared.retire_early then retire shared;
            List.iter
              (fun ext ->
                if not shared.skip_pending_incr then S.incr shared.pending;
                Shared_queue.push shared.router_queue
                  ~tie:ext.Partial_match.score
                  ~priority_of:(router_priority shared) ext)
              (List.rev !kept);
            kept := [];
            if not shared.retire_early then retire shared
          end;
          loop ()
    in
    loop ()

  let run ?(faults = []) ?(config = Engine.Config.default) (plan : Plan.t) ~k =
    let {
      Engine.Config.routing;
      queue_policy;
      should_stop;
      obs;
      _;
    } =
      config
    in
    let t0 = Clock.now_ns () in
    let obs_on = Obs.enabled obs in
    let qspan = if obs_on then Obs.root obs "query" else None in
    Obs.attr obs qspan "k" (float_of_int k);
    Obs.attr obs qspan "servers" (float_of_int plan.n_servers);
    let cert =
      if config.Engine.Config.on_certified == Engine.no_certify then None
      else
        Some
          ( Certify.create ~emit:config.Engine.Config.on_certified,
            Certify.Alive.create () )
    in
    let router_stats = Stats.create () in
    let shared =
      {
        plan;
        routing;
        queue_policy;
        topk =
          Topk_set.create ~k ~admit_partial:(Plan.admits_partial_answers plan) ();
        topk_mutex = S.mutex "topk.mutex";
        router_queue = Shared_queue.create "queue.router";
        server_queues =
          Array.init plan.n_servers (fun i ->
              Shared_queue.create (Printf.sprintf "queue.server.%d" i));
        seeds = Seeds.create plan router_stats;
        pending = S.atomic pending_loc 1 (* the router's token *);
        stop = S.atomic "stop" 0;
        partial = S.atomic "partial" 0;
        should_stop;
        cert;
        next_id = S.atomic "next_id" 1;
        obs;
        obs_on;
        qspan;
        drop_topk_lock = List.mem Fault.Drop_topk_lock faults;
        retire_early = List.mem Fault.Retire_early faults;
        skip_pending_incr = List.mem Fault.Skip_pending_incr faults;
      }
    in
    let server_stats =
      Array.init (plan.n_servers - 1) (fun _ -> Stats.create ())
    in
    let router_handle =
      S.spawn "router" (fun () -> router_loop shared router_stats)
    in
    (* One domain per non-root server, draining that server's queue. *)
    let server_handles =
      List.init (plan.n_servers - 1) (fun i ->
          let s = i + 1 in
          S.spawn (Printf.sprintf "server.%d" s) (fun () ->
              server_loop shared s
                ~stats_loc:(Printf.sprintf "stats.server.%d" s)
                server_stats.(i)))
    in
    S.join router_handle;
    List.iter S.join server_handles;
    (* Post-join: single-threaded again.  A drained run has an empty
       alive set, so every remaining entry is final; a partial run
       stops emitting (already-streamed answers stay valid). *)
    (match cert with
    | Some (c, _) when S.get shared.partial = 0 ->
        Certify.flush_all c shared.topk
    | Some _ | None -> ());
    let stats = Stats.create () in
    Stats.add stats router_stats;
    Array.iter (Stats.add stats) server_stats;
    stats.wall_ns <- Int64.sub (Clock.now_ns ()) t0;
    S.note_read topk_loc;
    let answers = Topk_set.entries shared.topk in
    if obs_on then begin
      Obs.attr obs qspan "answers" (float_of_int (List.length answers));
      Obs.attr obs qspan "server_ops" (float_of_int stats.server_ops);
      if S.get shared.partial <> 0 then Obs.attr obs qspan "partial" 1.0;
      Obs.finish obs qspan
    end;
    { Engine.answers; stats; partial = S.get shared.partial <> 0 }
end

module Default = Make (Sync.Real)

let run ?config plan ~k = Default.run ?config plan ~k
