(** The root server, as a cursor over a plan's seed classes
    ({!Plan.seeds}), in the order a max-final-score queue holding every
    seed would pop them.  Every engine seeds through it, and
    Whirlpool-S and the simulator's router pop through it ({!pop}). *)

type t

val create : Plan.t -> Stats.t -> t
(** A cursor at the first class.  Charges the root server's work: one
    op, and one comparison and one created match per root candidate,
    one died match per root a required server kills. *)

val head : t -> float
(** The head class's bound; [neg_infinity] when no class is left. *)

val beats : t -> 'a Pqueue.t -> bool
(** Whether the head class's next root wins the next pop from a queue
    ordered by [max_possible], ties to the higher score: a seed,
    logically queued first, wins a full tie. *)

val open_next :
  t -> Topk_set.t -> next_id:(unit -> int) -> Partial_match.t option
(** The head class's next root in document order, as a seed counted in
    [seeds_materialized].  A class whose bound the set prunes
    ({!Topk_set.prunes_bound}: no unopened root is in the set, so a
    tie with the threshold loses) dies whole instead, its roots
    counted as pruned: [None]. *)

val admit : t -> Topk_set.t -> Partial_match.t -> bool
(** Offer a fresh seed to the top-k set through {!Server.offer}; true
    when it stays alive. *)

val pop :
  t -> Topk_set.t -> Partial_match.t Pqueue.t -> next_id:(unit -> int) ->
  trace:Server.trace -> stop:(unit -> bool) ->
  popped:(Partial_match.t -> unit) -> Partial_match.t option
(** The next match to visit: the head class's next root ({!open_next},
    {!admit}) when it {!beats} the queue's top, else the queue's top
    unless {!Server.prune} drops it.  Dead seeds and pruned pops are
    skipped, re-checking the cursor after each.  [popped] sees each
    match handed out or pruned, before the prune test; [stop] runs
    before each step that has work, and true ends the pop.  [None]
    once nothing is left or [stop] fired. *)

val drain : t -> next_id:(unit -> int) -> Partial_match.t list
(** Every live root's seed, in document order, leaving no class.
    @raise Invalid_argument once a class was opened. *)
