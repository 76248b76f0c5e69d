(** Annotated strong dataguide.

    A strong dataguide is the tree of {e distinct root-to-node label
    paths} of a document: two document nodes share a guide node exactly
    when the tag sequences from the root down to them are equal.  Every
    guide node therefore carries a single depth, and the guide is never
    larger than the document (usually far smaller — xmark documents of
    hundreds of thousands of nodes have a few hundred paths).

    Each guide node is annotated with the extent of the document nodes
    on its path: their count and their minimum/maximum preorder ids.
    Because preorder ids order the per-tag streams served by
    {!Wp_xml.Index.postings}, these id windows let a twig join skip whole
    runs of a tag stream whose label paths cannot participate in a
    pattern — the stream-skipping half of the holistic join.

    The same counts answer the static analyzer's document checks
    exactly ({!tag_count}, {!pairs_in_relation}): every document node on
    a path has exactly one ancestor at each smaller depth, and that
    ancestor lies on the path's guide ancestor at that depth.

    Building the guide is a single O(nodes) traversal; {!of_index}
    memoizes one guide per live document, so any domain may call it. *)

type t

val build : Wp_xml.Doc.t -> t
(** One traversal of the document. *)

val of_index : Wp_xml.Index.t -> t
(** Memoized {!build} on the index's document: repeated calls for the
    same document return the same guide (physical equality).  This is
    the process's one cache of guides.  It holds documents weakly, so a
    dropped or reloaded document is collected with its guide.  The
    build runs outside the memo's mutex; concurrent first calls may each
    build, but all of them get the guide that was cached first. *)

val size : t -> int
(** Number of guide nodes, i.e. distinct root-to-node label paths. *)

val height : t -> int
(** Maximum node depth in the document (root = 0). *)

val doc_nodes : t -> int
(** Size of the document the guide summarizes; the per-guide-node
    counts sum to this. *)

val count : t -> int -> int
(** Number of document nodes on guide node [g]'s path. *)

val tag_count : t -> string -> int
(** Number of document nodes with the tag ({!Wp_xml.Index.wildcard}
    counts every node).  Exact; O(guide size). *)

val pairs_in_relation :
  t -> anc:string -> desc:string -> Wp_relax.Relation.t -> int
(** Number of (ancestor, descendant) document node pairs with the given
    tags whose depth difference satisfies the relation; either tag may
    be {!Wp_xml.Index.wildcard}.  Exact at every depth.  Zero means no
    node pair in the document can satisfy a structural predicate
    carrying this relation.  O(guide size · height). *)

(** Result of matching a pattern against the guide: per pattern node,
    which document depths and preorder-id windows can hold a node that
    participates in a {e complete exact} embedding of the pattern. *)
type selection = {
  satisfiable : bool;
      (** False when no embedding can exist in this document at all —
          every stream may be skipped outright. *)
  depth_ok : bool array array;
      (** [depth_ok.(q).(d)] — pattern node [q] may bind a document node
          at depth [d].  Row length is [height t + 1]; all-false rows
          accompany [satisfiable = false]. *)
  windows : (int * int) array array;
      (** [windows.(q)] — disjoint, sorted, inclusive preorder-id
          intervals outside of which no candidate for [q] exists. *)
}

val select : t -> Wp_pattern.Pattern.t -> selection
(** Conservative (superset) filter: any document node bound by any
    exact embedding of the pattern is admitted by the returned depths
    and windows.  Value predicates are ignored (they only shrink the
    true candidate set).  O(guide size · pattern size). *)

val pp : Format.formatter -> t -> unit
(** One line per path: depth-indented tag, count, id window. *)
