(** Debug-mode runtime invariant checks.

    The engines' pruning is sound only while, for every partial match,
    the score grows and [max_possible] shrinks monotonically along
    extensions, [score <= max_possible] always, [max_possible] never
    exceeds the plan's static score bound, and the top-k set's k-th
    score (the pruning threshold) never decreases within an insertion.
    These hold by construction — unless a corrupted score table, spec
    array or queue discipline breaks them, in which case the engine
    silently returns wrong top-k answers.

    With the environment variable [WP_CHECK_INVARIANTS] set (to
    anything but ["0"] or the empty string), both engines assert the
    invariants on every extension and raise {!Violation} on the first
    breach.  The checks are skipped entirely — a single cached boolean
    test — when the variable is unset. *)

exception Violation of string

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Programmatic override of the environment variable (tests). *)

val check_seed : Plan.t -> Partial_match.t -> unit
(** The match scores no more than its root's seed bound
    ({!Plan.bound_of_root}): the per-root bound the seed classes prune
    by is sound for every match the root spawns, completed and stored
    ones included.  A node that is not a root candidate is not
    checked. *)

val check_class : Plan.t -> Plan.seed_class -> int -> unit
(** The position of a root about to be opened from a class
    ({!Seeds.open_next}): a root candidate, whose seed bound and root
    weight, computed root by root ({!Plan.bound_of_root},
    {!Plan.root_weight}), are exactly the class's.  A class whose
    signatures select a wrong root, or fewer roots than its size, fails
    here. *)

val check_root : Plan.t -> Partial_match.t -> unit
(** A fresh root match: [score <= max_possible <= static bound], and
    {!check_seed}. *)

val check_extension : Plan.t -> parent:Partial_match.t -> Partial_match.t -> unit
(** An extension produced by a server from [parent]: score monotonically
    non-decreasing, [max_possible] monotonically non-increasing, the
    root-match bounds and {!check_seed}. *)

val check_table : Wp_score.Score_table.t -> unit
(** The score table about to drive pruning: every entry satisfies
    [0 <= relaxed_weight <= exact_weight] (finite) — the premise of
    the static prune-soundness certificate
    ({!Wp_analysis.Prove.table_violations} is the checker). Run by
    {!Seeds.create}, once per pruning engine run, when checks are
    enabled. *)

val check_threshold : before:float -> after:float -> unit
(** The top-k threshold (the k-th score, never the set's floor)
    observed around an insertion: non-decreasing (retraction of a died
    match may lower it and is not checked). *)
