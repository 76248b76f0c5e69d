(** Backend dispatch over the {!Whirlpool.Engine.Config.algo} axis.

    The single entry point the CLI, the examples and the serve tier
    call: picks the engine named by [config.algo] and runs it with the
    rest of the config. *)

val run :
  ?config:Whirlpool.Engine.Config.t ->
  ?guide:Wp_stats.Dataguide.t ->
  Whirlpool.Plan.t ->
  k:int ->
  Whirlpool.Engine.result
(** Dispatch on [config.algo]:
    - [Whirlpool] → {!Whirlpool.Engine.run}
    - [Whirlpool_mt] → {!Whirlpool.Engine_mt.run}
    - [Lockstep] / [Lockstep_noprun] → {!Whirlpool.Lockstep.run} under
      [config.queue_policy] and [config.should_stop], with and without
      pruning
    - [Twig] → {!Twig_join.run}

    [guide] (used by the twig backend only) defaults to the memoized
    per-document guide, {!Wp_stats.Dataguide.of_index}. *)
