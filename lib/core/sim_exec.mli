(** Discrete-event simulated execution.

    The paper's hardware-dependent experiments — the processor sweep of
    Figure 9 (1, 2, 4 and "infinitely many" CPUs on a 54-CPU Sun F15K)
    and the operation-cost sweep of Figure 8 — are reproduced under a
    virtual clock instead of on exotic hardware.  The simulator runs the
    {e same} server, router, top-k and strategy code as the real engines,
    but charges a configurable cost per server operation and per routing
    decision, and schedules the per-server threads of the Whirlpool-M
    architecture onto [processors] virtual CPUs (a thread occupies a CPU
    for the duration of each operation; ready threads wait for a free
    CPU in arrival order).  All interleaving effects the paper discusses
    — the top-k threshold growing at a different pace under parallelism
    and thereby changing adaptive routing choices — arise naturally.

    The simulated Whirlpool-S engine is the sequential special case: a
    single thread paying [route_cost + op_cost] per step, so its
    makespan is exactly [ops·op_cost + decisions·route_cost]. *)

type costs = {
  op_cost : float;  (** seconds charged per server operation *)
  route_cost : float;  (** seconds charged per routing decision *)
}

type result = {
  makespan : float;  (** simulated completion time, seconds *)
  engine : Engine.result;  (** answers and operation counts *)
  busy_time : float;  (** total CPU-seconds consumed *)
}

val simulate_s :
  ?config:Engine.Config.t -> costs:costs -> Plan.t -> k:int -> result
(** Sequential Whirlpool-S under the cost model (runs {!Engine.run} and
    prices its operation counts). *)

val simulate_m :
  ?config:Engine.Config.t ->
  costs:costs ->
  processors:int ->
  Plan.t ->
  k:int ->
  result
(** Event-driven simulation of the Whirlpool-M architecture on
    [processors] virtual CPUs ([max_int] models the paper's "infinite"
    machine).  [config] (default {!Engine.Config.default}) supplies the
    routing strategy and queue policy; its other fields are unused.
    Its router pops through {!Seeds.pop}, as Whirlpool-S
    does, and its servers settle visits through {!Server.settle}. *)
