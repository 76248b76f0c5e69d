(** Relaxation configuration and single-step relaxations on patterns.

    The three relaxations of the paper (after Amer-Yahia, Cho &
    Srivastava):

    - {e edge generalization} — replace a [Pc] edge by [Ad];
    - {e leaf deletion} — make a leaf node optional (delete it from the
      pattern);
    - {e subtree promotion} — re-attach a node's subtree to its
      grand-parent with an [Ad] edge.

    Every composition preserves exact matches of the original query. *)

type config = {
  edge_generalization : bool;
  leaf_deletion : bool;
  subtree_promotion : bool;
  value_relaxation : bool;
      (** FleXPath-style content relaxation (the paper's framework
          reference [3] relaxes content conditions as well as
          structure): a value predicate [= 'v'] is satisfied {e exactly}
          by equal content and {e approximately} by content containing
          [v] as a token; with this off (the paper's evaluation
          setting), values are hard filters. *)
}

val all : config
(** The paper's evaluation setting: the three structural relaxations
    enabled, values exact. *)

val with_content : config
(** {!all} plus {!field-value_relaxation}. *)

val exact : config
(** No relaxation: plain exact tree-pattern matching. *)

type content_level = Content_exact | Content_relaxed | Content_reject

val content_level : config -> query:string -> actual:string option -> content_level
(** How a node's content satisfies a value predicate under the
    configuration: equal content is exact; under value relaxation,
    content containing the query as a whitespace-delimited token is
    relaxed; anything else rejects the candidate. *)

val content_level_at :
  config -> value:string option -> Wp_xml.Doc.t -> Wp_xml.Doc.node_id ->
  content_level
(** {!content_level} of a document node's value against a server's
    value predicate, read in place ({!Wp_xml.Doc.value_equals},
    {!Wp_xml.Doc.value_has_token}); no predicate ([value = None]) is
    exact. *)

val pp_config : Format.formatter -> config -> unit

val relax_to_root : config -> Relation.t -> Relation.t
(** Most relaxed relation implied by [config] for a path whose composed
    relation is the argument: edge generalization drops the depth upper
    bound, subtree promotion collapses the lower bound to 1. *)

val relax_internal : config -> Relation.t -> Relation.t
(** Most relaxed relation between two pattern nodes when the lower one
    cannot escape the upper one's subtree (promotion moves whole
    subtrees, so only edge generalization applies downward). *)

(** Single-step relaxed patterns, for the rewriting-based reference
    semantics used in tests (the engine itself never enumerates
    queries — it encodes relaxations in server predicates). *)

val edge_generalizations : Wp_pattern.Pattern.t -> Wp_pattern.Pattern.t list
(** One pattern per [Pc] edge (including the root edge) turned into
    [Ad]. *)

val leaf_deletions : Wp_pattern.Pattern.t -> Wp_pattern.Pattern.t list
(** One pattern per non-root leaf removed. *)

val subtree_promotions : Wp_pattern.Pattern.t -> Wp_pattern.Pattern.t list
(** One pattern per node (with a grand-parent) whose subtree is
    re-attached to the grand-parent under [Ad]. *)

val steps : config -> Wp_pattern.Pattern.t -> Wp_pattern.Pattern.t list
(** All single-step relaxations permitted by [config]. *)

val canonical_key : Wp_pattern.Pattern.t -> string
(** A string that identifies a pattern up to sibling order, used to
    deduplicate the closure. *)

val closure : ?limit:int -> config -> Wp_pattern.Pattern.t -> Wp_pattern.Pattern.t list
(** All distinct patterns reachable by composing permitted relaxations
    (including the original), up to [limit] patterns (default 10_000).
    Exponential — test-sized patterns only.
    @raise Failure if the closure exceeds [limit]. *)

val closure_with_steps :
  ?limit:int -> config -> Wp_pattern.Pattern.t ->
  (Wp_pattern.Pattern.t * int) list
(** Like {!closure}, also reporting the minimal number of single-step
    relaxations needed to reach each pattern (0 for the original) — the
    "relaxation distance" used to grade answer relevance. *)

val closure_labeled :
  ?limit:int -> config -> Wp_pattern.Pattern.t ->
  (Wp_pattern.Pattern.t * Wp_pattern.Pattern.node_id array) list
(** Lattice enumeration with node provenance: each reachable pattern
    comes with an array mapping its node ids to the originating node ids
    of the input pattern (leaf deletion renumbers survivors, so the
    mapping is not the identity).  Unlike {!closure}, deduplication
    distinguishes same-shaped patterns with different provenance — the
    lattice the static analyzer checks server predicates against.
    @raise Failure if the closure exceeds [limit]. *)
