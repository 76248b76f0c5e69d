(* Known-bad: acquires a queue lock (rank 0) while holding the top-k
   lock (rank 1).  The declared hierarchy requires locks to be taken in
   increasing rank order, so the Sentinel's lock-rank rule must flag
   exactly the inner acquisition. *)

let topk_mutex = Mutex.create ()
let queue_mutex = Mutex.create ()

let inverted f =
  Mutex.lock topk_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock topk_mutex)
    (fun () ->
      Mutex.lock queue_mutex;
      Fun.protect ~finally:(fun () -> Mutex.unlock queue_mutex) f)
