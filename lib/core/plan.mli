(** Compiled query plans.

    A plan bundles everything the engines share: the pattern, the
    relaxation configuration, the per-server predicate specs (Algorithm
    1), the scoring table, the document index, and per-server statistics
    estimated from a sample of root candidates (average fan-out, fraction
    of exact-level extensions, fraction of empty joins) that feed the
    size-based and score-based routing strategies. *)

type t = {
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
    candidates.  The idf counts and the root candidates are read
    through [memo], the document's component table (default: a fresh,
    empty one); it must belong to [idx]'s document.  The plan is the
    same whether the memo is warm or empty. *)

val admits_partial_answers : t -> bool
(** Whether the top-k set may hold partial matches: true as soon as leaf
    deletion or subtree promotion can leave nodes unbound; under the
    exact configuration only complete matches are answers. *)

val max_weight : t -> int -> float
(** Best score contribution of a server (its exact weight). *)

val pp : Format.formatter -> t -> unit
