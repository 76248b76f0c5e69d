(** Raceway — schedule exploration and concurrency checking for
    Whirlpool-M.

    Runs the multithreaded engine, instantiated with the deterministic
    instrumented scheduler ({!Sched}), over many schedules of the same
    plan, and checks every schedule three ways:

    - the explored schedule's top-k answers must be score-equivalent to
      the single-threaded {!Engine.run} oracle
      ([schedule/answer-mismatch]), and the run must neither deadlock
      ([schedule/deadlock]) nor exhaust the step budget
      ([schedule/step-budget]) nor raise ([schedule/exception]);
    - the recorded trace passes vector-clock race detection and the
      shutdown-counter checks of {!Wp_analysis.Concurrency};
    - lock-nesting edges accumulate over {e all} schedules into one
      lock-order graph, checked for cycles and for violations of the
      engine's declared hierarchy ({!lock_rank}).

    A clean engine yields an empty diagnostics list; the
    {!Engine_mt.Fault} injections each produce findings (that is how
    the detectors themselves are tested). *)

type report = {
  schedules : int;  (** schedules explored *)
  steps : int;  (** total scheduling steps across all schedules *)
  diagnostics : Wp_analysis.Diagnostic.t list;
      (** deduplicated findings, sorted by severity; each message names
          the first schedule that exhibited it *)
}

val lock_rank : string -> int option
(** The engine's declared lock hierarchy: queue mutexes ([queue.*])
    rank 0, the top-k mutex ([topk.mutex]) rank 1 — a thread holding
    the top-k mutex must not touch a queue.  Unknown names are
    unranked. *)

val check :
  ?schedules:int ->
  ?seed:int ->
  ?routing:Strategy.routing ->
  ?queue_policy:Strategy.queue_policy ->
  ?faults:Engine_mt.Fault.t list ->
  ?max_steps:int ->
  Plan.t ->
  k:int ->
  report
(** Explore [schedules] (default 200) seeded-random schedules
    ([seed] default 0 numbers them) of [Engine_mt.run] on the plan.
    [routing] and [queue_policy] are passed to the engine; [faults]
    (default none) injects defects; [max_steps] (default 1_000_000)
    bounds each schedule. *)

val pp_report : Format.formatter -> report -> unit
