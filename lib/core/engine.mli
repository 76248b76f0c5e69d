(** Whirlpool-S — the single-threaded adaptive engine.

    As in the paper (Section 6.1.2), the single-threaded variant needs no
    per-server queues: a partial match is processed by a server as soon
    as it is routed there, so matches wait only in the router queue,
    ordered by maximum possible final score by default.  Each iteration
    pops the best match, re-checks it against the top-k threshold (which
    may have risen since it was queued), asks the routing strategy for
    its next server, processes it there, and feeds surviving incomplete
    extensions back to the router. *)

type result = {
  answers : Topk_set.entry list;  (** the top-k, best first *)
  stats : Stats.t;
  partial : bool;
      (** true when the run was cut short by [should_stop] (deadline
          expiry, cooperative cancellation): the answers are the best
          top-k known at the stopping point, not necessarily the final
          one — graceful degradation in the spirit of the paper's
          approximate answers *)
}

val never_stop : unit -> bool
(** The default [should_stop] hook: always false.  Shared so the other
    engines can default their hooks without allocating a closure per
    run. *)

val no_certify : Topk_set.entry -> unit
(** The default [on_certified] hook: a shared no-op.  The engines gate
    all certification bookkeeping on physical inequality with this
    value, so a run without a hook pays nothing. *)

(** Every engine knob in one record — the single seam through which the
    CLI, the benches and {!Wp_serve} configure a run, replacing the
    optional-argument signatures that used to drift between
    [Engine.run], [Engine.run_above] and [Engine_mt.run].

    [default] reproduces the historical defaults bit-for-bit; the
    [with_*] setters build variations without naming the other fields,
    so adding a knob never touches a call site:

    {[
      let config =
        Engine.Config.(
          default |> with_routing Strategy.Max_score |> with_queue_policy Strategy.Fifo)
      in
      Engine.run ~config plan ~k:10
    ]} *)
module Config : sig
  (** Backend selector — the engine family a run should use, and the
      only one: the paper's four engines plus the exact-only holistic
      twig join ([Twig]).  The whirlpool engines ignore it (calling
      {!Engine.run} always runs Whirlpool-S); the one dispatcher over
      the axis is [Wp_twig.Backend.run], which the CLI, the examples
      and the serve tier go through. *)
  type algo =
    | Whirlpool
    | Whirlpool_mt
    | Lockstep
    | Lockstep_noprun
    | Twig

  val all_algos : algo list
  (** Every constructor, in declaration order. *)

  val algo_to_string : algo -> string
  (** Canonical wire name ("whirlpool-s", "whirlpool-m", "lockstep",
      "lockstep-noprun", "twig"); distinct per constructor and accepted
      back by {!algo_of_string}. *)

  val algo_of_string : string -> algo option
  (** Inverse of {!algo_to_string}, also accepting the historical
      aliases "ws", "wm" and "noprun". *)

  type t = {
    algo : algo;  (** default [Whirlpool] *)
    routing : Strategy.routing;  (** default [Min_alive] *)
    queue_policy : Strategy.queue_policy;  (** default [Max_final_score] *)
    should_stop : unit -> bool;
        (** cooperative-cancellation hook, default {!never_stop} *)
    obs : Wp_obs.Obs.t;
        (** observability context (spans with their engine events +
            per-server cost profile), default {!Wp_obs.Obs.disabled};
            the engines' only event channel.  A disabled context leaves
            the run's counters and answers bit-identical and builds no
            event *)
    on_certified : Topk_set.entry -> unit;
        (** called (outside any engine lock) the moment an answer is
            {e certified} — no alive partial match's maximum possible
            score can still beat it, so the entry is final and will
            appear, unchanged and in this exact order, as the next
            element of the run's answer list.  Default {!no_certify}
            (no bookkeeping is paid).  The serve tier streams these to
            protocol-v2 clients mid-run.  Emissions form a stable
            prefix of [result.answers]; a run cut short by
            [should_stop] stops emitting but never retracts.  Ignored
            by {!run_above}. *)
  }

  val default : t

  val with_algo : algo -> t -> t
  val with_routing : Strategy.routing -> t -> t
  val with_queue_policy : Strategy.queue_policy -> t -> t
  val with_should_stop : (unit -> bool) -> t -> t
  val with_obs : Wp_obs.Obs.t -> t -> t
  val with_on_certified : (Topk_set.entry -> unit) -> t -> t

  val with_cache : unit option -> t -> t
  (** Returns [t] unchanged: the candidate cache it configured is gone.
      It stays only because perfbench's replay still calls it, and goes
      with the next change to the benchmark's protocol. *)
end

val validate_plan : Plan.t -> unit
(** Raises {!Wp_analysis.Lint.Rejected} when the quick lint pass
    (structural well-formedness plus plan consistency — no lattice
    enumeration) reports an error-severity diagnostic for the plan,
    and runs {!Invariants.check_table} when checks are enabled.  No
    engine calls it: {!Plan.compile} already runs the same gate, so
    every plan passes it.  It stays only because perfbench's answer
    oracle still calls it, and goes with the next change to the
    benchmark's protocol. *)

val run : ?config:Config.t -> Plan.t -> k:int -> result
(** Run the adaptive top-k engine under [config] (default
    {!Config.default}).

    [config.should_stop] is checked at every iteration boundary (once
    per popped match, before it is processed).  When it returns true
    the engine stops routing, drops the remaining queue and returns the
    current top-k with [partial = true].  A hook that never fires
    leaves the run — and its answers — bit-identical to one without the
    hook.  {!Wp_serve} uses it to enforce per-request deadlines.

    Every popped match that survives the threshold re-check gets its
    own routing decision ([config.routing]); the paper's bulk routing
    (Section 6.3.3, future work) is not implemented.

    [config.obs], when enabled, collects a span tree (a root [query]
    span for the run with a [visit] child per server visit, each
    {!Wp_obs.Obs.event} attached to the innermost open span — the shape
    {!Engine_mt.run} records) and an exact per-server cost profile; the
    run's counters and answers are never affected. *)

val run_above : ?config:Config.t -> Plan.t -> threshold:float -> result
(** Threshold variant (the mode of the paper's predecessor system,
    Amer-Yahia et al. EDBT 2002): return {e every} answer whose score
    strictly exceeds [threshold], best first, pruning partial matches
    whose maximum possible final score cannot beat it.  The cardinality
    of the answer set is data-dependent rather than fixed at [k].

    It runs {!run}'s pop loop with [k] the number of root candidates
    (at least 1), so the top-k set holds one entry per root, and with
    [threshold] as a fixed floor: a partial match whose maximum
    possible score is strictly below it is pruned.  The answers are the
    entries scoring above it.  Every other knob of [config] applies as
    in {!run}, [obs] included; [config.on_certified] is ignored. *)
