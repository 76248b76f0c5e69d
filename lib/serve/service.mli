(** Request handling — catalog + engines + metrics, transport-agnostic.

    One {!t} serves one corpus.  {!handle_query} is what the worker
    pool runs per request: resolve the document(s), fetch the compiled
    plan from the catalog cache, run the engine under the request's
    {!Whirlpool.Engine.Config.t} (service defaults overridden by the
    request's [routing] and [batch] knobs, plus the deadline hook),
    and merge per-document top-k lists when the query spans the
    corpus.  Deadline semantics: the engine's [should_stop] hook fires
    once the request's deadline passes, the run stops at the next
    iteration boundary and the reply carries the current top-k flagged
    [Partial] with code [deadline_expired] — a served query never
    hangs, it degrades.  A deadline of 0 has already expired; one too
    far out to represent in nanoseconds is no deadline; a negative or
    non-finite one is a [bad_request].  So is a request that carries
    [use_cache]: the candidate cache it toggled is gone.  A request
    whose hook never fires returns answers entry-identical to a direct
    {!Whirlpool.Engine.run} on the same (document, plan, k).

    Failures are classified into the closed {!Protocol.error_code}
    vocabulary: resolution failures are [bad_request], static-analysis
    refusals [lint_rejected], unexpected exceptions [internal].

    Every service owns a {!Wp_obs.Registry.t} into which its request
    metrics ({!Metrics.register}) and cumulative engine counters
    ({!Whirlpool.Stats.register}) publish; {!prometheus} renders it as
    a text-exposition page.  When [slow_query_ms] is set, each request
    runs under a fresh observability context and requests at or above
    the threshold deposit their full span tree and per-server cost
    profile in a bounded slow-query log ({!slow_queries}). *)

type t

val create :
  ?default_k:int ->
  ?default_deadline_ms:float ->
  ?max_k:int ->
  ?engine_config:Whirlpool.Engine.Config.t ->
  ?slow_query_ms:float ->
  catalog:Catalog.t ->
  unit ->
  t
(** [default_k] (10) and [default_deadline_ms] (none — no deadline)
    apply when a query omits the fields; [max_k] (1000) caps any
    requested [k].  [engine_config] (default
    {!Whirlpool.Engine.Config.default}) seeds every request's engine
    configuration.  [slow_query_ms] (default: off) arms the slow-query
    log. *)

val catalog : t -> Catalog.t
val metrics : t -> Metrics.t

val registry : t -> Wp_obs.Registry.t
(** The service's metrics registry — the single snapshot path behind
    {!prometheus}. *)

val record_shed : t -> unit
(** Called by the transport when admission control sheds a request. *)

val handle_query : t -> Protocol.query -> Protocol.response
(** Run one query end to end; accounts latency and status in
    {!metrics}.  Never raises: engine and catalog failures become
    [Error]-status replies carrying an {!Protocol.error_code}. *)

val handle_query_stream :
  t ->
  ?cancelled:(unit -> bool) ->
  ?on_part:(Protocol.answer -> unit) ->
  Protocol.query ->
  Protocol.response * int
(** As {!handle_query}, plus streaming: when [on_part] is given and the
    query resolves to a single document, each answer is passed to it
    the instant the engine certifies it as final (see
    [Engine.Config.on_certified]); merged and scattered queries never
    stream — their per-document answers are not final until the merge.
    Returns the buffered response (its [answers] {e include} the
    streamed prefix, in the same order) and the number of answers
    streamed.  The first streamed answer records the request's
    time-to-first-answer in {!metrics}.

    [cancelled] (default: never) is or-ed into the engine's
    [should_stop] hook: the transport sets it when the client vanishes
    mid-request, cancelling the in-flight run at the next iteration
    boundary so a dead connection never holds a worker to
    completion. *)

val metrics_json : t -> Wp_json.Json.t
(** Service-level snapshot: request counters and latency percentiles
    ({!Metrics.snapshot}) plus corpus size, plan-cache and
    component-table figures and the slow-query count. *)

val prometheus : t -> string
(** The registry as a Prometheus text-exposition page (format 0.0.4):
    request counters, latency percentiles and histogram, engine
    counters, corpus and plan-cache figures. *)

val slow_queries : t -> Wp_json.Json.t
(** The slow-query log, newest first (empty unless [slow_query_ms] was
    set): per entry the query text, elapsed milliseconds, the request's
    span tree and its per-server cost profile. *)

val handle :
  t -> Protocol.request -> [ `Reply of Protocol.response | `Stop of Protocol.response ]
(** Dispatch any request.  [`Stop] tells the transport to reply and
    then begin a graceful shutdown. *)
