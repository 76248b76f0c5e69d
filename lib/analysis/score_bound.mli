(** Static score-bound derivation from the document's dataguide.

    The paper's Definition 4.4 scores an answer as [Σ idf·tf] over the
    query's component predicates.  Both factors are bounded by counts
    the guide holds exactly ({!Wp_stats.Dataguide.tag_count} and
    {!Wp_stats.Dataguide.pairs_in_relation}): [idf(p) ≤ log(count(q0))]
    as soon as one pair satisfies [p] (and the component contributes
    exactly 0 when none can), and [tf(p, n) ≤ min(pairs(p), count(qi))]
    because one candidate cannot witness more satisfying pairs than
    exist in the whole document.  Summing the per-component bounds
    yields a document-level ceiling on any answer's raw score —
    derivable before running anything, and the anchor for the
    debug-mode invariant that no partial match's [max_possible] ever
    exceeds the static bound. *)

val component_bound :
  Wp_stats.Dataguide.t ->
  anc_tag:string -> target_tag:string -> Wp_relax.Relation.t -> float
(** Upper bound on [idf·tf] of a single component predicate relating an
    [anc_tag] source to a [target_tag] node under the relation. *)

val of_pattern :
  ?config:Wp_relax.Relaxation.config ->
  Wp_stats.Dataguide.t -> Wp_pattern.Pattern.t -> float
(** Upper bound on any candidate's Definition 4.4 score for the
    pattern.  With [config], component relations are first relaxed as
    far as the configuration allows, so the bound also covers scores of
    relaxed matches.  The root component contributes 0 (its source is
    the unique document root, so its idf vanishes whenever any
    candidate exists). *)
