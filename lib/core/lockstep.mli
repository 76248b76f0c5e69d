(** LockStep — the non-adaptive baseline (and its no-pruning variant).

    All partial matches pass through one server before the next server is
    considered, so at any time every alive match has gone through exactly
    the same sequence of operations; this is the OptThres-style strategy
    the paper compares against.  Within a stage, matches are processed in
    queue-policy order (max possible final score by default), and — in
    the pruning variant — checked against the top-k set before and after
    each server operation.

    [run ~prune:false] is LockStep-NoPrun: every partial match is fully
    materialized and scored, and the top-k is selected by a final sort.
    Its [matches_created] statistic is the "maximum possible number of
    partial matches" denominator of the paper's Table 2. *)

val run :
  ?order:int array ->
  ?queue_policy:Strategy.queue_policy ->
  ?prune:bool ->
  ?should_stop:(unit -> bool) ->
  Plan.t ->
  k:int ->
  Engine.result
(** [order] is the server sequence (default [1 .. n-1]); [prune] defaults
    to [true].  [should_stop] (default {!Engine.never_stop}) is checked
    at every staged pop, as {!Engine.run} checks it per iteration; once
    it fires no further match is processed in this or any later stage,
    and the answers known so far are returned with [partial = true].
    @raise Wp_analysis.Lint.Rejected as {!Engine.validate_plan}. *)
