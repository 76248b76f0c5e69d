(** Closed-loop load generator for the service.

    [clients] threads each hold one connection and issue queries
    back-to-back (round-robin over the query list) for [duration_s]
    seconds, then the per-status counts and client-side latency
    samples are merged into one {!point}.  {!measure} is one
    [wp_cli loadgen] point, whether the server was spawned for it or
    is already listening ([--connect]). *)

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
  socket:string ->
  queries:string list ->
  clients:int ->
  duration_s:float ->
  unit ->
  (point, string) result
(** [Error] when no client can connect or [queries] is empty.
    [algo] is the backend wire name forwarded on every request
    (omitted when [None], leaving the server's default).  Requests are
    merged queries (no [doc]), which stream no [Part] frames unless the
    corpus holds one document; a client's latency runs to the [Done]. *)

val ttfa_probe :
  ?algo:string ->
  ?k:int ->
  ?doc:string ->
  socket:string ->
  query:string ->
  unit ->
  (Wp_json.Json.t, string) result
(** Issue one streamed query and report the client-side
    time-to-first-answer: [ttfa_ms] (first [Part] frame, [null] when
    nothing streamed), [total_ms] (terminal [Done]), [streamed] and
    [answers] counts, and [ttfa_before_done].  Only single-document
    queries stream, so pass [doc] on a multi-document corpus. *)

type measured = {
  cold : point;  (** first window *)
  warm : point;  (** second window, reusing the plans the first compiled *)
  ttfa : Wp_json.Json.t option;
      (** the {!ttfa_probe} report, or [{"query", "error"}] when the probe
          failed; [None] when no probe was asked for *)
  server_metrics : Wp_json.Json.t;  (** the server's JSON metrics snapshot *)
}

val measure :
  ?algo:string ->
  ?ttfa_query:string ->
  socket:string ->
  queries:string list ->
  clients:int ->
  duration_s:float ->
  unit ->
  (measured, string) result
(** One load point against the server on [socket]: two back-to-back
    {!run} windows, then (with [ttfa_query]) one {!ttfa_probe} pinned to
    the first document the server's metrics list under
    [corpus.names], then the server's metrics snapshot.  [Error] when a
    window or a metrics fetch fails. *)

val measured_fields : measured -> (string * Wp_json.Json.t) list
(** [cold], [warm], [ttfa] (when probed) and [server_metrics], as the
    fields of a point object. *)
