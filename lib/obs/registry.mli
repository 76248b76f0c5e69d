(** Metrics registry — one namespace of counters, gauges and histograms
    with a Prometheus text exporter.

    A registry is the single snapshot path for every figure the system
    publishes: push-style metrics ({!counter}, {!histogram})
    are updated at event sites, pull-style metrics ({!pull_counter},
    {!pull_gauge}) read their value from a callback at snapshot time —
    that is how {!Whirlpool.Stats} accumulators and the serve-layer
    request/latency state register without paying registry costs on
    their hot paths.

    All operations are thread-safe under one internal mutex
    ({!mutex_name}, leaf-only: no callback may re-enter the registry,
    and the registry never calls out while locked except into
    registered pull callbacks, which must not take locks ranked at or
    above it). *)

type t

val create : unit -> t

val mutex_name : string
(** ["obs.registry.mutex"] — leaf rank in the declared lock hierarchy
    ({!Whirlpool.Race.lock_rank}): never held while acquiring any other
    ranked lock. *)

(** {1 Push-style metrics} *)

type counter

val counter :
  t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Register (or retrieve) the counter [name] with the given label set.
    Re-registering the same (name, labels) returns the existing metric;
    a kind clash raises [Invalid_argument]. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1, must be >= 0) to the counter. *)

val counter_value : counter -> int

type histogram

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float list ->
  string ->
  histogram
(** [buckets] are upper bounds in increasing order (default: latency-ish
    milliseconds [0.5; 1; 2.5; 5; 10; 25; 50; 100; 250; 500; 1000]); a
    [+Inf] bucket is always appended. *)

val observe : histogram -> float -> unit

(** {1 Pull-style metrics} *)

val pull_counter :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  string ->
  (unit -> float) ->
  unit
(** Register a cumulative counter whose value is read from the callback
    at every {!snapshot}. *)

val pull_gauge :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  string ->
  (unit -> float) ->
  unit

(** {1 Snapshot and exporters} *)

type value =
  | Sample of float
  | Buckets of { buckets : (float * int) list; sum : float; count : int }
      (** cumulative histogram counts per upper bound, last bound is
          [infinity] *)

type kind = Counter | Gauge | Histogram

type sample = {
  name : string;
  help : string;
  kind : kind;
  labels : (string * string) list;
  value : value;
}

val snapshot : t -> sample list
(** Every registered metric, in registration order; pull callbacks are
    invoked outside the registry lock. *)

val to_prometheus : sample list -> string
(** Prometheus text exposition (version 0.0.4): [# HELP] / [# TYPE]
    once per metric family, then one line per sample.  Histograms emit
    [_bucket{le=...}], [_sum] and [_count] series. *)

val validate_exposition : string -> (unit, string) result
(** Structural check of a Prometheus text page: every line must be
    blank, a well-formed [# HELP]/[# TYPE] comment, or a sample line
    [name{label="value",...} number] whose metric name is legal and
    whose number is finite.  [Error] names the first offending line —
    the CI scrape gate and the exposition tests share this. *)
