(** Prune-soundness prover for the shipped scoring configurations.

    The engines prune with {!Wp_analysis.Score_bound}'s admissible
    upper bounds and walk {!Wp_relax.Relaxation}'s lattice assuming
    every edge is score-monotone.  Both assumptions reduce to the
    weight-order invariant [0 <= relaxed_weight <= exact_weight]
    (finite) on the {!Wp_score.Score_table} feeding the engine.  This
    module proves that invariant symbolically for every shipped
    normalization under every shipped relaxation config — by interval
    analysis over the construction formulas plus checked lemmas about
    the idf model (nonnegative, antitone in the satisfying-source
    count) and the relaxation operators (they only widen predicates) —
    and emits certificates whose refuted obligations surface as
    [sentinel/prune-unsound] diagnostics.

    {!table_violations} is the concrete counterpart on a built table;
    the [WP_CHECK_INVARIANTS] runtime hook
    ({!Whirlpool.Invariants.check_table}) runs it once per pruning
    engine run so the symbolic certificate is cross-checked against the
    actual numbers the engine prunes with. *)

type verdict = Proved | Refuted of string

type obligation = {
  oid : string;
  claim : string;
  argument : string;
      (** why the claim holds, or what grid/interval was checked *)
  verdict : verdict;
}

type certificate = { subject : string; obligations : obligation list }

val certified : certificate -> bool
(** Every obligation proved. *)

val certify_normalization :
  ?config:Wp_relax.Relaxation.config ->
  Wp_score.Score_table.normalization ->
  certificate
(** Symbolic certificate for one normalization under one relaxation
    config (default {!Wp_relax.Relaxation.all}). *)

val table_violations : Wp_score.Score_table.t -> string list
(** Concrete violations of [0 <= relaxed_weight <= exact_weight]
    (finite) in a built table, one message per offending entry,
    ordered by node id.  Empty iff the table is prune-sound. *)

val certify_table : ?subject:string -> Wp_score.Score_table.t -> certificate
(** Certificate form of {!table_violations}. *)

val shipped_normalizations : Wp_score.Score_table.normalization list
val shipped_configs : Wp_relax.Relaxation.config list

val check_shipped : unit -> certificate list
(** Certificates for every shipped normalization under every shipped
    relaxation config (the [--prove-bounds] stage). *)

val diagnostics : certificate list -> Diagnostic.t list
(** Refuted obligations as [sentinel/prune-unsound] errors. *)
