(** Compiled query plans.

    A plan bundles everything the engines share: the pattern, the
    relaxation configuration, the per-server predicate specs (Algorithm
    1), the scoring table, the document index, and per-server statistics
    estimated from a sample of root candidates (average fan-out, fraction
    of exact-level extensions, fraction of empty joins) that feed the
    size-based and score-based routing strategies. *)

(** A level signature: whether the root is exact, and per non-root
    server whether the root's subtree holds an exact-level candidate
    there, only relaxed ones, or none — as a conjunction of bitsets
    over the postings of the root's tag (the root candidates, the
    exact roots and the servers' {!cap} sweeps), some negated.  Every
    root of one signature has one seed bound. *)
type signature

(** Root candidates grouped by seed bound, which {!Seeds} opens.  A
    root's {e seed bound} is its own weight plus, per
    non-root server, its {e cap}: the exact weight when the root's
    subtree holds an exact-level candidate, else the relaxed weight
    when it holds an accepted one, else 0 for an optional server.  A
    required server with no candidate kills the root: it is in no
    class.  No match of a root can score above its seed bound.

    Classes are ordered the way a max-final-score queue holding every
    seed would pop the seeds: by bound, then by root weight (the
    queue's tie-break on current score), then in document order
    (insertion order).  A class holds the signatures that share its
    bound and root weight, not its roots: {!next_root} finds them. *)
type seed_class = {
  bound : float;  (** the seed bound all its roots share *)
  weight : float;  (** the root weight all its roots share *)
  size : int;  (** live roots in the class *)
  first_word : int;
      (** the 64-posting word holding its first root: its roots lie at
          postings [64 * first_word] and after *)
  signatures : signature array;
}

(** What a server can add to a root's seed bound, its {e cap}: the
    exact weight when bit [pos] of [exact] is set (the root at
    posting [pos] of its tag holds an exact-level candidate below it),
    else the relaxed weight when bit [pos] of [accepted] is set (it
    holds any accepted candidate), else [none_weight].  The bitsets
    are the sweeps of the server's exact and relaxed components
    ({!Wp_score.Tfidf.sweep}), shared through the component table. *)
type cap = {
  exact : Bytes.t;
  accepted : Bytes.t;
  exact_weight : float;
  relaxed_weight : float;
  none_weight : float;
      (** 0 for an optional server, [neg_infinity] for a required one:
          a required server with no candidate kills the root *)
}

type t = private {
  pattern : Wp_pattern.Pattern.t;
  config : Wp_relax.Relaxation.config;
  specs : Wp_relax.Server_spec.t array;  (** by pattern node id *)
  scores : Wp_score.Score_table.t;
  index : Wp_xml.Index.t;
  roots : Wp_xml.Doc.node_id array;
      (** document nodes matching the pattern root's tag, value and
          (relaxed) root edge, in document order — the tuples the root
          server generates.  Read-only: plans compiled through one
          {!Wp_score.Component_table} share this array, so no engine
          may write it. *)
  root_postings : Wp_xml.Index.postings;
      (** the postings of the root's tag: a root's {e position} there is
          its bit in every bitset of a plan *)
  root_candidates : Bytes.t;  (** the roots' positions, as a bitset *)
  caps : cap array;  (** per server; index 0 (the root server) unused *)
  seeds : seed_class array;
      (** computed word by word from the bitsets when the plan is
          compiled, with no per-root work *)
  n_servers : int;  (** = pattern size; server ids are pattern node ids *)
  full_mask : int;  (** bitmask with one bit per server *)
  est_fanout : float array;
      (** estimated candidate extensions per partial match, per server *)
  est_p_exact : float array;
      (** estimated fraction of extensions earning the exact weight *)
  est_p_empty : float array;
      (** estimated fraction of partial matches finding no extension *)
}

val compile :
  ?normalization:Wp_score.Score_table.normalization ->
  ?memo:Wp_score.Component_table.t ->
  Wp_xml.Index.t ->
  Wp_relax.Relaxation.config ->
  Wp_pattern.Pattern.t ->
  t
(** [compile idx config pat] builds a plan.  [normalization] defaults to
    [Sparse]; the routing estimates sample the first 100 root
    candidates.  The idf counts, the sweeps behind the seed bounds and
    the root candidates are read through [memo], the document's component table (default: a fresh,
    empty one); it must belong to [idx]'s document.  The plan is the
    same whether the memo is warm or empty.

    The query is checked first: a pattern or predicate sequence with an
    error-severity finding of {!Wp_analysis.Lint.quick} would return
    wrong answers, so compile raises {!Wp_analysis.Lint.Rejected}
    before it reads any postings.  Since {!t} is private, no code
    outside this module can build or alter a plan, so every plan has
    passed that check and no engine repeats it.
    @raise Wp_analysis.Lint.Rejected on a refused query. *)

val root_weight : t -> Wp_xml.Doc.node_id -> float
(** The root server's weight for a root binding: exact when the root
    edge and value hold exactly, relaxed otherwise. *)

val seed_rest : t -> int -> float
(** [seed_rest t pos]: the caps of the root at position [pos] of
    [root_postings] summed over the non-root servers in server order,
    [neg_infinity] when a required server kills the root. *)

val bound_of_root : t -> root:Wp_xml.Doc.node_id -> float
(** The seed bound of a root binding — its root weight plus its
    {!seed_rest}, the [max_possible] its seed starts with; [infinity]
    for a node that is not a root candidate. *)

val seed_cap : t -> root:Wp_xml.Doc.node_id -> int -> float
(** The cap of a server for a root binding — what an extension there
    subtracts from [max_possible] before adding its weight, since the
    seed bound counted that much for the server.  The server's exact
    weight for a node that is not a root candidate. *)

val next_root : t -> signature array -> int -> int
(** [next_root t sigs pos]: the first position at or after [pos] of a
    root with one of the signatures [sigs], or [-1], 64 per step. *)

val iter_live : t -> (int -> unit) -> unit
(** [iter_live t f] calls [f] on the position of every live root, in
    document order, a word at a time. *)

val n_classes : t -> int
val n_seeds : t -> int
(** Bound classes, and roots in them (root candidates minus killed
    ones). *)

val head_bound : t -> float
(** The first class's bound, which no match of the plan can score
    above: what {!Seeds.head} reads on a fresh cursor, without creating
    one.  [neg_infinity] when no root is live. *)

val admits_partial_answers : t -> bool
(** Whether the top-k set may hold partial matches: true as soon as leaf
    deletion or subtree promotion can leave nodes unbound; under the
    exact configuration only complete matches are answers. *)

val max_weight : t -> int -> float
(** Best score contribution of a server (its exact weight). *)

val pp : Format.formatter -> t -> unit
