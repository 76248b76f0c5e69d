(** Static analysis of tree-pattern queries, relaxation plans and
    server predicate sequences.

    The analyzer runs a pipeline of checks before a query executes:

    - {e well-formedness} — preorder-id discipline, tag validity, value
      predicates on leaves only;
    - {e redundancy} — duplicate or subsumed sibling predicates whose
      [tf] double-counts;
    - {e plan consistency} — a server-spec array (the compiled
      conditional predicate sequences of Algorithm 1) must agree with
      the pattern and the relaxation configuration: composed exact
      relations, permitted relaxed levels, hard/optional flags, and
      relation invariants (no contradictory depth bounds);
    - {e lattice consistency} — for small queries, the relaxation
      lattice is enumerated ({!Wp_relax.Relaxation.closure_labeled})
      and every reachable composition is cross-checked against the
      spec's most relaxed admitted relation: a composition the spec
      rejects means the engine would refuse a legitimately relaxed
      match (error); an admitted relation no lattice member achieves
      means the plan is slacker than the three relaxations justify
      (warning);
    - {e document checks} (when the document's {!Wp_stats.Dataguide.t}
      is supplied) — tag-vocabulary membership, structural
      satisfiability (a predicate no node pair in the document can
      satisfy even at its most relaxed level), and the static score
      bound of {!Score_bound}.  The guide's counts are exact, so a
      [unsatisfiable/no-pairs] finding is never a false alarm and never
      missed.

    Severity of document-dependent findings follows the configuration:
    a node that can be deleted (leaf deletion enabled) degrades
    gracefully, so its findings are warnings; without leaf deletion an
    unmatchable node makes complete answers impossible and the finding
    is an error. *)

val well_formedness : Wp_pattern.Pattern.t -> Diagnostic.t list
val redundancy : Wp_pattern.Pattern.t -> Diagnostic.t list

val plan_consistency :
  config:Wp_relax.Relaxation.config ->
  Wp_pattern.Pattern.t ->
  Wp_relax.Server_spec.t array ->
  Diagnostic.t list
(** Structural agreement of a spec array with pattern and config; no
    lattice enumeration, O(pattern²). *)

val lattice_consistency :
  ?max_lattice:int ->
  config:Wp_relax.Relaxation.config ->
  Wp_pattern.Pattern.t ->
  Wp_relax.Server_spec.t array ->
  Diagnostic.t list
(** Cross-check against the enumerated relaxation lattice, capped at
    [max_lattice] (default 2000) labeled patterns; reports an info
    diagnostic and skips when the lattice is larger. *)

val document_checks :
  config:Wp_relax.Relaxation.config ->
  Wp_stats.Dataguide.t ->
  Wp_pattern.Pattern.t ->
  Diagnostic.t list

val quick :
  config:Wp_relax.Relaxation.config ->
  specs:Wp_relax.Server_spec.t array ->
  Wp_pattern.Pattern.t ->
  Diagnostic.t list
(** The cheap always-on subset run on every compiled plan:
    {!well_formedness} plus {!plan_consistency}. *)

val check :
  ?guide:Wp_stats.Dataguide.t ->
  ?specs:Wp_relax.Server_spec.t array ->
  ?max_lattice:int ->
  config:Wp_relax.Relaxation.config ->
  Wp_pattern.Pattern.t ->
  Diagnostic.t list
(** The full pipeline, sorted by severity.  [specs] defaults to a fresh
    {!Wp_relax.Server_spec.build}; pass a compiled plan's array to vet
    it instead.  Document checks run only when [guide] is given. *)

exception Rejected of Diagnostic.t list
(** Raised by {!validate_exn}; carries the error-severity findings. *)

val validate_exn :
  config:Wp_relax.Relaxation.config ->
  specs:Wp_relax.Server_spec.t array ->
  Wp_pattern.Pattern.t ->
  unit
(** Run {!quick} and raise {!Rejected} if any finding is an error — the
    gate [Whirlpool.Plan.compile] applies before it builds a plan. *)
