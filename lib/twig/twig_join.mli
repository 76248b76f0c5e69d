(** Holistic twig join over the annotated strong dataguide.

    The exact-matching competitor engine: a TwigStack-style holistic
    join that streams each pattern node's preorder-sorted tag list
    through linked stacks, instead of growing partial matches server by
    server.  Before any stream is read, the pattern is matched against
    the document's {!Wp_stats.Dataguide}; streams whose label paths
    cannot take part in a complete embedding are skipped wholesale, and
    the surviving streams are clipped to the guide's preorder-id
    windows.

    The join is {e exact only}: relaxations in the plan are ignored, so
    its answers equal Whirlpool's exact-only answers (every complete
    exact match scores {!Wp_score.Score_table.max_total}).  Matched
    roots are reported in document order with full witness bindings.

    {b Windows.}  A run reads the root stream in windows in document
    order: the first holds [k] roots, each later one twice as many as
    the one before, and the run stops once [k] roots have matched or
    the root postings run out.  Each window's descendant streams are
    clipped to [\[first root, max subtree end over the window's
    roots)] — roots nest, so the last root's end can fall short — so
    the answers are the full join's first [k], with the same roots and
    the same witness bindings.

    The run fills the same {!Whirlpool.Stats.t} counters as the other
    engines: [server_ops] counts stream elements examined,
    [comparisons] counts predicate tests, [matches_created] counts
    match-set entries, and [completed] counts the matched roots of the
    windows joined: at least the answer count, at most
    {!match_count}, and beyond [k] when the last window overshoots. *)

val match_count : ?guide:Wp_stats.Dataguide.t -> Whirlpool.Plan.t -> int
(** Number of document nodes heading a complete exact embedding: one
    window over every root posting, without building witnesses. *)

val run :
  ?config:Whirlpool.Engine.Config.t ->
  ?guide:Wp_stats.Dataguide.t ->
  Whirlpool.Plan.t ->
  k:int ->
  Whirlpool.Engine.result
(** Evaluate the plan's pattern exactly, window by window, and return
    the first [k] matched roots in document order, each carrying score
    [Score_table.max_total plan.scores].  [guide] defaults to the
    memoized guide of the plan's document
    ({!Wp_stats.Dataguide.of_index}), which the CLI and the serve tier
    both use; the pattern's selection against that guide
    ({!Wp_stats.Dataguide.select}) is memoized per plan too.  Pass a
    guide to run against one built elsewhere: its selection is computed
    afresh on every call.  Reads
    [config.should_stop] before each window: a stopped run returns
    [partial = true] with no answers.
    @raise Invalid_argument when [k < 1]. *)
