(** The serve tier — one [Unix.select] loop multiplexing every
    connection, with the bounded worker pool ({!Pool.Real}) kept
    strictly for query execution.

    - N connections cost one loop thread plus the pool, not N threads;
    - the loop can interleave frames on a connection, so a query that
      resolves to one document streams certified answers as [Part]
      frames the moment the engine's k-th threshold certifies them,
      closing with a [Done] frame carrying the complete reply; merged
      queries, control replies and parse errors are a single [Done]
      ({!Protocol.stream_frame});
    - a client that vanishes mid-stream or mid-frame is detected at the
      next loop round: its fd is closed immediately, the in-flight run
      is cancelled through the engine's [should_stop], and the
      connection slot is reclaimed once the run drains — no leaked
      socket, no stuck worker;
    - an optional HTTP/JSON gateway shares the same loop: [GET
      /healthz], [GET /metrics] (Prometheus exposition), [GET
      /metrics.json] and [POST /query] (the wire query object, [op] and
      [id] optional), one request per connection, [503] when the pool
      sheds; a head carrying [Expect: 100-continue] whose length is
      accepted gets an interim [100 Continue] before its body is
      read.

    Control operations (ping, metrics, stop) are answered inline
    by the loop thread through {!Service.handle}, so a saturated pool
    never makes the service unobservable.  Workers never touch sockets:
    replies and stream frames are appended to a per-connection outbox
    under its mutex and a self-pipe write wakes the select, which
    flushes writable sockets outside any lock.  Frames use the {!Wire}
    layout. *)

type server

val serve :
  ?workers:int ->
  ?queue_depth:int ->
  ?http:int ->
  ?on_ready:(server -> unit) ->
  socket:string ->
  service:Service.t ->
  unit ->
  (unit, string) result
(** Bind [socket] (an existing socket file is replaced) and run the
    event loop until a [Stop] request or {!request_stop}; blocks the
    calling thread for the server's lifetime.  [on_ready] runs once the
    listeners are up, before the loop starts.  [http] additionally
    binds the HTTP/JSON gateway on [127.0.0.1:http] ([0] picks an
    ephemeral port — read it back with {!http_port}).  [workers]
    (default [Domain.recommended_domain_count - 1], at least 1) and
    [queue_depth] (default 64) size the pool.  [Error] when [workers]
    or [queue_depth] is below 1 (checked before anything binds) or
    when a listener cannot be bound. *)

val spawn :
  ?workers:int ->
  ?queue_depth:int ->
  ?http:int ->
  socket:string ->
  service:Service.t ->
  unit ->
  (server * Thread.t, string) result
(** {!serve} on a fresh thread: returns once the listeners are up, with
    the server and the thread to join after {!request_stop}, or with
    the startup error once that thread has exited.  An exception
    raised before the listeners are up is a startup error too. *)

val request_stop : server -> unit
(** Begin a graceful shutdown from any thread (idempotent): stop
    accepting, shed new queries, drain in-flight runs and outboxes,
    then close every fd and remove the socket file. *)

val conn_count : server -> int
(** Number of connection slots currently held, including vanished
    clients whose in-flight runs have not yet drained.  Exposed so the
    fd-hygiene tests can assert reclamation. *)

val http_port : server -> int option
(** The bound HTTP port, once listening ([None] without [?http]). *)
