(** The candidate top-k set.

    Holds at most [k] (partial or complete) matches, at most one per
    distinct root binding — "the k returned answers must be distinct
    instantiations of the query root node".  A new match with a root
    already present updates that entry when its current score is higher;
    otherwise it competes with the lowest entry.  The threshold (the
    k-th best current score, once the set is full) prunes any match
    whose maximum possible final score cannot strictly beat it, and so
    does a fixed [floor] ([Engine.run_above]'s bar) any match below it;
    a complete entry prunes every other match for its own root that
    cannot strictly beat it ({!should_prune}).

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
  complete : bool;
      (** the snapshot had visited every server (the [~complete] it was
          offered with) *)
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
(** True when the match can never change the final top-k, by one of
    three rules:
    - its maximum possible final score is strictly below the floor;
    - it cannot strictly beat the threshold, unless it ties the
      threshold and its own root's entry is its own or scores below the
      tie (a tie cannot displace another root's entry, but can still
      improve its own root's);
    - its own root holds a {e complete} entry contributed by another
      match, scoring at least the match's maximum possible score
      (own-root dominance).  The match cannot beat that entry's score,
      and at an equal score cannot replace it either, since the progress
      tie-break needs strictly more servers visited than a complete
      match's.  Should the entry be evicted later, the threshold has
      risen to at least its score, so the threshold rule prunes the match
      anyway; and a complete entry is never retracted.
    Allocation-free: one threshold read and one table lookup. *)

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
    paper's lock-step predecessor accepts.  Raises [Invalid_argument] if
    that entry is complete: a complete match never dies, and
    {!should_prune}'s dominance rule relies on a complete entry staying
    until it is evicted. *)

val best_since_mark : t -> float
(** The best score stored since the last {!mark} (or creation),
    [neg_infinity] if none — an O(1) answer to "may an entry above some
    bar have arrived?" for readers that otherwise keep their own view
    of the set (streaming certification). *)

val mark : t -> unit
(** Reset {!best_since_mark} to [neg_infinity]. *)

val entries : t -> entry list
(** Current entries, best first (ties by root document order). *)
