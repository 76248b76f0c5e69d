(** Server-side join processing.

    One server per non-root pattern node ({!Seeds} is the root
    server).  Processing a partial match at a server
    (i) retrieves, through the tag index, the candidate document nodes
    below the match's root binding that satisfy the server's (relaxed)
    structural predicate, (ii) filters them through the conditional
    predicate sequence against whichever related pattern nodes the match
    already binds, (iii) scores each surviving extension at the level
    (exact or relaxed) its root predicate satisfies, and (iv) spawns one
    extended match per survivor — or a single unbound extension when the
    node is optional and nothing matched, or nothing at all when the
    match thereby dies.

    With subtree promotion disabled, bindings are not independent: a
    binding accepted now can invalidate a relative's options later, so
    whenever the node participates in hard conditionals the deletion
    branch is emitted {e alongside} the bound extensions, and candidates
    below an already-deleted pattern ancestor are rejected.  This keeps
    the explored answer space independent of the order in which servers
    process a match (the cross-engine equality the tests rely on). *)

type outcome = {
  extensions : Partial_match.t list;
  died : bool;
      (** no extension and the match is invalid (exact-mode empty join,
          or an optional node that cannot be deleted because a pattern
          descendant is already bound while promotion is disabled) *)
}

val process :
  Plan.t -> Stats.t -> next_id:(unit -> int) -> Partial_match.t ->
  server:int -> outcome
(** Process a partial match at a non-root server it has not visited.

    One pass over the index slice below the match's root binding
    applies the content test, the candidate relation and the hard
    conditionals together; every slice entry counts as one of
    [stats.comparisons].  An extension lowers [max_possible] by the
    root's cap at the server ({!Plan.seed_cap}) and raises it by its
    weight.

    @raise Invalid_argument on the root server or an already-visited
    one. *)

val profiled :
  Wp_obs.Obs.t -> parent:Wp_obs.Obs.span option -> Stats.t -> server:int ->
  (Wp_obs.Obs.span option -> 'a) -> 'a
(** Run a visit under a [visit] child span of [parent] (passed to the
    visit), recording its comparisons and time in the cost profile. *)

(** {1 Settling a visit}

    The visit bookkeeping every engine shares.  The top-k set decides
    every prune ({!Topk_set.should_prune}).  [trace] receives the
    engine events; without it none is built. *)

type trace = (Wp_obs.Obs.event -> unit) option

val prune : Stats.t -> Topk_set.t -> trace:trace -> Partial_match.t -> bool
(** Whether the set prunes a popped match; a pruned match counts in
    [matches_pruned]. *)

val offer :
  Plan.t -> Stats.t -> Topk_set.t -> trace:trace -> Partial_match.t -> bool
(** Offer a fresh match to the top-k set and count it as [completed] or
    pruned ({!prune}); true when it stays alive. *)

val settle :
  Plan.t -> Stats.t -> Topk_set.t -> trace:trace -> Partial_match.t ->
  server:int -> outcome -> keep:(Partial_match.t -> unit) -> unit
(** Settle a match's visit from its {!process} outcome: check each
    extension when [Invariants] are on, retract a parent that died,
    {!offer} each extension in order and pass the survivors to [keep].
    Builds no list. *)
