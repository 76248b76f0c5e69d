(** Server-side join processing.

    One server per pattern node.  Processing a partial match at a server
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

val initial_matches :
  Plan.t -> Stats.t -> next_id:(unit -> int) -> Partial_match.t list
(** Evaluate the root server: one fresh partial match per candidate root
    binding (the paper's "book server" step). *)

val process :
  Plan.t -> Stats.t -> next_id:(unit -> int) -> Partial_match.t ->
  server:int -> outcome
(** Process a partial match at a non-root server it has not visited.

    One pass over the index slice below the match's root binding
    applies the content test, the candidate relation and the hard
    conditionals together; every slice entry counts as one of
    [stats.comparisons].

    @raise Invalid_argument on the root server or an already-visited
    one. *)
