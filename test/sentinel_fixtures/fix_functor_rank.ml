(* Known-bad only through a functor-local name: [emit] takes the queue
   lock (rank 0), and [route] calls it, unqualified, inside a
   [with_topk] section (the top-k lock, rank 1).  The call-graph stage
   must resolve [emit] to the functor's own binding ([Make.emit]) to
   flag the call site. *)

module Make (L : sig
  val queue_mutex : Mutex.t
end) =
struct
  let topk_mutex = Mutex.create ()

  let with_topk f =
    Mutex.lock topk_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock topk_mutex) f

  let emit log e =
    Mutex.lock L.queue_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock L.queue_mutex)
      (fun () -> log := e :: !log)

  let route log = with_topk (fun () -> emit log 1)
end
