(** Per-server scoring weights used by the top-k engine.

    The engine assigns each partial match an incrementally-maintained
    score: binding query node [qi] contributes the idf of the component
    predicate [p(q0, qi)] at the level the binding satisfies — the exact
    composed relation, or its permitted relaxation (relaxed matches
    satisfy a less selective predicate, hence earn its lower idf).  An
    unbound (deleted) node contributes 0.  The maximum-possible-final
    score of a partial match adds every unvisited server's best weight to
    its current score; it drives both pruning against the top-k set and
    the maximum-possible-final-score priority queues.

    Normalizations (paper Section 6.2.2): [Sparse] rescales each
    predicate's weights so every predicate tops out at 1 (uniform
    predicate importance — final scores spread out, pruning bites early);
    [Dense] rescales all weights by the single global maximum (skew
    preserved — final scores bunch together, pruning bites late).
    [Random_sparse]/[Random_dense] draw synthetic weights with the same
    two shapes, for score-distribution experiments independent of the
    document statistics. *)

type normalization =
  | Raw
  | Sparse
  | Dense
  | Random_sparse of int  (** seed *)
  | Random_dense of int  (** seed *)

val pp_normalization : Format.formatter -> normalization -> unit
val normalization_of_string : string -> normalization option

type entry = {
  node : Wp_pattern.Pattern.node_id;
  exact_weight : float;  (** contribution of an exact-level binding *)
  relaxed_weight : float;
      (** contribution of a relaxed-level binding; equals [exact_weight]
          when the configuration permits no relaxation of this
          predicate *)
}

type t

val build :
  ?memo:Component_table.t ->
  Wp_xml.Index.t -> Wp_pattern.Pattern.t -> Wp_relax.Relaxation.config ->
  normalization -> t
(** The idf counts behind the raw weights are read through [memo]
    (default: a fresh, empty table), which must belong to the index's
    document.  Counts are integers, so a table built through a warm
    memo is bit-identical to one built through an empty one. *)

val of_entries : entry array -> t
(** Hand-built table (tests and the motivating example). *)

val entry : t -> Wp_pattern.Pattern.node_id -> entry
val size : t -> int

val max_contribution : t -> Wp_pattern.Pattern.node_id -> float
(** Best weight a binding at this node can earn ([exact_weight]). *)

val max_total : t -> float
(** Upper bound on any match score: sum of all max contributions. *)

val pp : Format.formatter -> t -> unit
