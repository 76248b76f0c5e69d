(** Closed-loop load generator for the service.

    [clients] threads each hold one connection and issue queries
    back-to-back (round-robin over the query list) for [duration_s]
    seconds, then the per-status counts and client-side latency
    samples are merged into one {!point}.  [wp_cli loadgen] boots a
    server per point and calls {!run} for its cold and warm windows;
    {!report} measures an already-listening server instead
    ([loadgen --connect]). *)

type point = {
  clients : int;
  requests : int;  (** replies received, shed included *)
  ok : int;
  partial : int;
  overloaded : int;
  errors : int;  (** error-status replies and transport failures *)
  duration_s : float;
  throughput : float;  (** replies per second *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

val run :
  ?algo:string ->
  ?bound_push:bool ->
  socket:string ->
  queries:string list ->
  clients:int ->
  duration_s:float ->
  unit ->
  (point, string) result
(** [Error] when no client can connect or [queries] is empty.
    [algo] is the backend wire name forwarded on every request
    (omitted when [None], leaving the server's default).
    [bound_push] is forwarded on every request (omitted when [None]):
    [Some false] turns cross-shard bound pushing off server-side, the
    scatter-only baseline for the sharding benchmarks.  Every
    connection speaks protocol v1, so each request costs exactly one
    buffered reply. *)

val ttfa_probe :
  ?algo:string ->
  ?k:int ->
  ?doc:string ->
  socket:string ->
  query:string ->
  unit ->
  (Wp_json.Json.t, string) result
(** Issue one streamed query over protocol v2 and report the
    client-side time-to-first-answer: [ttfa_ms] (first [Part] frame,
    [null] when nothing streamed), [total_ms] (terminal [Done]),
    [streamed] and [answers] counts, and [ttfa_before_done].  Only
    single-document queries stream, so pass [doc] on a multi-document
    corpus.  [Error] when the server negotiates the connection down to
    v1, since nothing can stream there. *)

val point_to_json : point -> Wp_json.Json.t

val report :
  ?algo:string ->
  socket:string ->
  queries:string list ->
  client_counts:int list ->
  duration_s:float ->
  unit ->
  (Wp_json.Json.t, string) result
(** Run one {!point} per entry of [client_counts] sequentially and
    wrap them with the sweep parameters, plus the server's own metrics
    snapshot fetched after the last point. *)
