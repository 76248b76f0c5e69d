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

    Building the guide is a single O(nodes) traversal; {!of_index}
    memoizes one guide per document for the life of the process, under
    a mutex, so any domain may call it. *)

type t

val build : Wp_xml.Doc.t -> t
(** One traversal of the document. *)

val of_index : Wp_xml.Index.t -> t
(** Memoized {!build} on the index's document: repeated calls for the
    same document return the same guide (physical equality). *)

val size : t -> int
(** Number of guide nodes, i.e. distinct root-to-node label paths. *)

val height : t -> int
(** Maximum node depth in the document (root = 0). *)

val doc_nodes : t -> int
(** Size of the document the guide summarizes; the per-guide-node
    counts sum to this. *)

val count : t -> int -> int
(** Number of document nodes on guide node [g]'s path. *)

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
