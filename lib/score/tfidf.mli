(** The XML tf*idf scoring function — Definitions 4.2, 4.3 and 4.4.

    For a component predicate [p(q0, qi)] over database [D]:

    - [idf(p, D) = log(|{n : tag(n)=q0}| / |{n : tag(n)=q0 and some n'
      with tag qi satisfies p(n, n')}|)] — the fewer [q0] nodes satisfy
      the predicate, the more discriminating it is;
    - [tf(p, n) = |{n' : tag(n')=qi and p(n, n')}|] — the number of
      distinct ways candidate [n] satisfies it;
    - the score of answer [n] is [Σ_p idf(p, D) · tf(p, n)], predicates
      assumed independent as in the IR vector-space model.

    Conventions for degenerate counts: when no node carries [q0]'s tag
    the idf is 0 (the predicate cannot discriminate an empty candidate
    set); when candidates exist but none satisfies [p], the idf is
    [log (count(q0) + 1)] — the value the formula would give if exactly
    one "virtual" candidate satisfied the predicate with add-one
    smoothing — so that rarer-than-observable predicates stay finite yet
    maximally discriminating. *)

val satisfies :
  Wp_xml.Index.t -> Component.t -> root:Wp_xml.Doc.node_id ->
  target:Wp_xml.Doc.node_id -> bool
(** Does the (root, target) node pair satisfy the component predicate
    (relation, target tag and value)?  For the root component, [root] is
    ignored and the document root is used as the source. *)

val tf : Wp_xml.Index.t -> Component.t -> root:Wp_xml.Doc.node_id -> int
(** Definition 4.3. *)

val sweep :
  ?memo:Component_table.t -> Wp_xml.Index.t -> Component.t ->
  Component_table.sweep
(** Which [q0] nodes have a satisfying target: bit [i] is set when the
    [i]-th posting of [q0]'s tag does (bit 0, the document root, for the
    root component), and the count of set bits,
    [|{n : tag(n) = q0 and ∃ n' : p(n, n')}|], is the idf denominator.
    Read through [memo] (default: a fresh, empty table), which must
    belong to the index's document.

    Computed by one forward merge sweep over the [q0] and [qi] postings
    (both in preorder, read in place on either index backend): the
    target cursor advances past each source, and the source then scans
    only its own subtree interval, stopping at the first satisfying
    target.  For source tags that do not nest (no [q0] node below
    another) the subtree intervals are disjoint, so the sweep is
    O(|sources| + |targets|); nested sources rescan the targets of
    their shared subtrees, never more than a full per-source count
    would. *)

val idf : ?memo:Component_table.t -> Wp_xml.Index.t -> Component.t -> float
(** Definition 4.2, with the degenerate-count conventions above; the
    [q0] count is {!Wp_xml.Index.count} (1 for the root component).
    The satisfying count is read off {!sweep} through [memo] (default:
    a fresh, empty table), which must belong to the index's document. *)

val score : Wp_xml.Index.t -> Component.t array -> root:Wp_xml.Doc.node_id -> float
(** Definition 4.4: [Σ idf·tf] over the query's component predicates for
    a candidate answer node. *)

val rank :
  Wp_xml.Index.t -> Wp_pattern.Pattern.t -> k:int ->
  (Wp_xml.Doc.node_id * float) list
(** Top-k candidate root nodes by Definition 4.4 score, best first (ties
    by document order).  Candidates are the nodes matching the pattern
    root's tag, value and root edge.  This is the direct (non-adaptive)
    reference ranking used to validate the engine's scoring. *)
