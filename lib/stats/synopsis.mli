(** Structural selectivity synopsis.

    A one-pass synopsis of a document recording, for every pair of
    element tags (a, d), how many (ancestor, descendant) node pairs
    exist at each depth difference, plus per-tag populations.  From it,
    the number of node pairs standing in any depth-bounded relation —
    exactly the relations tree-pattern servers test — is answered in
    O(depth cap) without touching the document.  The static analyzer
    uses it for vocabulary, satisfiability and score-bound checks
    ({!Wp_analysis.Lint}, {!Wp_analysis.Score_bound}).

    Depth differences are capped at {!depth_cap}; deeper pairs are
    accumulated in the final bucket, which keeps the synopsis size
    O(|tags|² · depth_cap) regardless of document size. *)

type t

val depth_cap : int
(** Histogram resolution (16): depth differences ≥ [depth_cap] share the
    last bucket. *)

val build : Wp_xml.Doc.t -> t
(** One traversal of the document; O(nodes · depth) time. *)

val tag_count : t -> string -> int
(** Number of nodes with a given tag ({!Wp_xml.Index.wildcard} counts
    every node). *)

val pair_count : t -> anc:string -> desc:string -> depth:int -> int
(** Number of (ancestor, descendant) pairs with the given tags at
    exactly the given depth difference (capped). *)

val pairs_in_relation : t -> anc:string -> desc:string -> Wp_relax.Relation.t -> int
(** Total number of (ancestor, descendant) pairs with the given tags
    whose depth difference satisfies the relation (buckets beyond
    {!depth_cap} are included conservatively).  Zero means no node pair
    in the document can satisfy a structural predicate carrying this
    relation — the satisfiability test the static analyzer performs. *)

val distinct_tags : t -> string list
val pp : Format.formatter -> t -> unit
