(** Whirlpool-M — the multi-threaded adaptive engine.

    Mirrors the paper's architecture (Figure 4): one thread per non-root
    server, each with its own priority queue of partial matches, plus a
    router thread with the router queue.  The coordinating main thread
    builds the root server's initial matches, so a query of [n] nodes
    spawns [n - 1] server threads and one router thread.  Threads are
    OCaml 5 domains, so available cores give true parallelism.  The
    top-k set is shared under a mutex; termination is detected by an
    atomic count of in-flight partial matches.

    Because server and router threads interleave nondeterministically,
    pruning decisions — and hence the operation counts — can differ from
    run to run and from Whirlpool-S; the paper observes exactly this
    effect (Section 6.3.5: the threshold grows at a different pace,
    changing the adaptive routing choices).

    The engine is a functor over {!Sync.S}: {!run} instantiates it with
    real domains, while {!Race} instantiates it with the deterministic
    instrumented scheduler ({!Sched}) for lock-order analysis, race
    detection and schedule exploration.  DESIGN.md ("Concurrency
    model") documents the lock hierarchy, the happens-before edges and
    the shutdown protocol the analyzer checks. *)

(** Injectable concurrency defects, exercised by the race-detection
    tests and by [wp_cli race --inject] to demonstrate the analyzers.
    Never enabled by the plain {!run}. *)
module Fault : sig
  type t =
    | Drop_topk_lock  (** access the shared top-k set without its mutex *)
    | Retire_early
        (** retire a consumed match before its surviving extensions are
            registered in the in-flight count *)
    | Skip_pending_incr
        (** enqueue extensions without incrementing the in-flight count *)

  val to_string : t -> string
  val of_string : string -> t option
  val all : t list
  val pp : Format.formatter -> t -> unit
end

val topk_loc : string
(** Shared-location name under which instrumented runs report top-k-set
    accesses. *)

val pending_loc : string
(** Atomic-location name of the in-flight counter, for
    {!Wp_analysis.Concurrency.shutdown}. *)

module Make (S : Sync.S) : sig
  val run :
    ?faults:Fault.t list ->
    ?config:Engine.Config.t ->
    Plan.t ->
    k:int ->
    Engine.result
  (** As the top-level {!run}; [faults] (default none) injects the
      given defects for detector validation. *)
end

val run : ?config:Engine.Config.t -> Plan.t -> k:int -> Engine.result
(** Run under [config] (default {!Engine.Config.default}).

    [config.should_stop] (default: never) is the cooperative-cancellation
    hook of {!Engine.run}: router and server threads test it once per
    popped match; the first thread that observes it raises the global
    stop flag, every queue drains without further processing, and the
    result carries the current top-k with [partial = true].

    [config.obs], when enabled, collects a root span with a child span
    per server visit plus the exact per-server cost profile; as in the
    single-threaded engine it never affects counters or answers.  The
    root span carries the same {!Wp_obs.Obs.event} vocabulary as the
    single-threaded engine.  Events from all domains are stamped and
    sequenced under the context's mutex, so {!Wp_obs.Obs.events} orders
    two multi-threaded runs' streams comparably even though per-domain
    emission order is nondeterministic.

    [config.batch] does not apply: the multi-threaded engine routes
    match-at-a-time.

    [config.on_certified] streams certified answers exactly as in
    {!Engine.run}; alive-set bookkeeping rides the existing top-k
    critical sections, and only the router thread invokes the callback
    (outside any lock), so emissions arrive in final answer order. *)
