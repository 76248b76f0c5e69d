(** Streaming certification of top-k answers.

    The paper's invariant certifies an answer as final the moment no
    alive partial match can beat it: with [ub] the maximum
    [max_possible] over the alive set, every entry scoring {e strictly}
    above [ub] is immutable — it can never be displaced, evicted or
    re-ordered — so it can be pushed to a client mid-run.  Both engines
    drive one {!t} when a run's [Engine.Config.on_certified] hook is
    set, calling {!newly_certified} (or {!flush}) at iteration
    boundaries with the current [ub].  The emitted sequence is always a
    stable prefix of the final [Topk_set.entries] order.

    The engine supplies [ub]: under the default max-final-score policy
    Whirlpool-S reads it off its own queue, whose priority is
    [max_possible]; other policies and Whirlpool-M track the alive set
    in an {!Alive} heap.  A call where nothing certifies is O(1) and
    allocation-free; the top-k set is sorted only when an entry
    certifies, at most [k] times per run.

    Single-threaded callers use {!flush}; the multi-threaded engine
    computes {!newly_certified} under its top-k lock and emits outside
    it (the callback may block on a socket). *)

type t

val create : emit:(Topk_set.entry -> unit) -> t

val streamed : t -> int
(** Entries handed to [emit] so far. *)

val newly_certified : t -> Topk_set.t -> bound:float -> Topk_set.entry list
(** Entries scoring strictly above [bound] (the alive set's maximum
    [max_possible], [neg_infinity] when nothing is alive) not yet
    streamed, in answer order; bumps the {!streamed} counter.  The
    caller must pass each to {!emit}.  [bound] must be non-increasing
    across calls. *)

val emit : t -> Topk_set.entry -> unit

val flush : t -> Topk_set.t -> bound:float -> unit
(** {!newly_certified} + {!emit} in one step, for single-threaded
    engines. *)

val flush_all : t -> Topk_set.t -> unit
(** Emit every remaining entry unconditionally — the end of a run that
    drained naturally, when nothing is alive. *)

(** The alive set, for engines whose queues do not expose its maximum
    [max_possible] directly. *)
module Alive : sig
  type t

  val create : unit -> t

  val add : t -> Partial_match.t -> unit
  (** Register an alive partial match (call where it is enqueued). *)

  val remove : t -> int -> unit
  (** Drop a match id from the alive set (call where it is consumed:
      popped for processing, or pruned). *)

  val bound : t -> float
  (** Max [max_possible] over the alive set, [neg_infinity] when
      nothing is alive.  Non-increasing across certification points. *)
end
