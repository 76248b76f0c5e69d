(** The candidate top-k set.

    Holds at most [k] (partial or complete) matches, at most one per
    distinct root binding — "the k returned answers must be distinct
    instantiations of the query root node".  A new match with a root
    already present updates that entry when its current score is higher;
    otherwise it competes with the lowest entry.  The threshold (the
    k-th best current score, once the set is full) prunes any match
    whose maximum possible final score cannot strictly beat it, and so
    does a fixed [floor] ([Engine.run_above]'s bar) any match below it.

    Whether partial matches are admitted depends on the relaxation
    configuration: with outer-join (relaxed) semantics every partial
    match is a potential answer and scores only grow, so admitting them
    tightens the threshold sooner; under exact semantics a partial match
    may still die on an empty join, so only complete matches are
    admitted (a prematurely admitted match could inflate the threshold
    and prune sound answers). *)

type entry = {
  root : int;  (** document node bound at the pattern root *)
  score : float;
  match_id : int;
  bindings : int array;  (** snapshot of the contributing match *)
  progress : int;
      (** how many servers the snapshot had visited — among equal-score
          matches for a root, the most-processed one is kept *)
}

type t

val create : ?floor:float -> k:int -> admit_partial:bool -> unit -> t

val k : t -> int
val cardinality : t -> int

val threshold : t -> float
(** The k-th best current score, or [neg_infinity] while the set holds
    fewer than [k] entries; never the floor. *)

val consider : t -> complete:bool -> Partial_match.t -> unit
(** Offer a match to the set (no-op for incomplete matches when the set
    only admits complete ones). *)

val should_prune : t -> Partial_match.t -> bool
(** True when the match's maximum possible final score cannot strictly
    beat the current threshold (a tie can still improve the entry
    holding its own root), or is strictly below the floor — the match
    can never enter the final top-k. *)

val prunes_bound : t -> float -> bool
(** True when a match holding no entry, with maximum possible final
    score [bound], cannot strictly beat the threshold or is below the
    floor: a seed class dies whole on it ({!Seeds.open_next}). *)

val retract : t -> Partial_match.t -> unit
(** Remove the entry contributed by this exact match, if it still owns
    one.  Called when a partial match {e dies} for validity reasons
    (possible only in configurations mixing leaf deletion with disabled
    promotion), so a dead match cannot linger as a phantom answer.  The
    threshold may drop as a result; matches already pruned against the
    higher threshold are not resurrected — the same approximation the
    paper's lock-step predecessor accepts. *)

val best_since_mark : t -> float
(** The best score stored since the last {!mark} (or creation),
    [neg_infinity] if none — an O(1) answer to "may an entry above some
    bar have arrived?" for readers that otherwise keep their own view
    of the set (streaming certification). *)

val mark : t -> unit
(** Reset {!best_since_mark} to [neg_infinity]. *)

val entries : t -> entry list
(** Current entries, best first (ties by root document order). *)
