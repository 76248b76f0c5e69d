(** Tag indexes with subtree range search.

    For each element tag the index stores the node identifiers bearing it,
    in document order.  Because identifiers are preorder ranks, all nodes
    with a given tag inside the subtree of any node [r] form a contiguous
    slice of that array, located by binary search — this is the index
    lookup each Whirlpool server performs to find candidate extensions
    below a partial match's root binding. *)

type t

val wildcard : string
(** The pseudo-tag ["*"], matched by every element; all lookup functions
    accept it. *)

val build : Doc.t -> t
(** Group the document's nodes by tag: a counting pass sizes each tag's
    extent, a second pass fills the postings column. *)

type columns = {
  postings : Doc.int32_column;
      (** every node id once, grouped by tag id (the order of
          {!Doc.distinct_tags}), document order within each tag *)
  extents : Doc.int32_column;
      (** per tag id, the (offset, length) of its window in [postings] *)
}

val of_columns : Doc.t -> columns -> t
(** An index over existing columns, without copying them — the postings
    sections of a memory-mapped [.wpidx] file ([Wp_storage]).  The
    extents are checked to lie inside the postings and to sum to its
    length; each window must hold its tag's node ids in document order,
    which is not checked.
    @raise Invalid_argument if a column has the wrong length or an
    extent leaves the postings. *)

val columns : t -> columns
(** The index's own columns (no copy); they must not be mutated. *)

val doc : t -> Doc.t
(** The document this index was built from. *)

val count : t -> string -> int
(** The number of nodes with the given tag; 0 for tags absent from the
    document. *)

type postings
(** One tag's window of the postings column, read in place. *)

val postings : t -> string -> postings
(** The postings of a tag ({!wildcard} included); empty for tags absent
    from the document. *)

val postings_length : postings -> int

val posting : postings -> int -> Doc.node_id
(** [posting p i] is the [i]-th node id of [p] (document order).
    @raise Invalid_argument unless [0 <= i < postings_length p]. *)

val lower_bound : postings -> Doc.node_id -> int
(** [lower_bound p v]: the first position of [p] whose node id is
    [>= v] ([postings_length p] when there is none), by bisection. *)

val lower_bound_from : postings -> from:int -> Doc.node_id -> int
(** [lower_bound_from p ~from v]: {!lower_bound} for a [v] known to
    lie past every node id before position [from] (the bound of a
    smaller [v], say), found in time logarithmic in its distance from
    [from]: a walk over increasing [v]s reads each stretch once. *)

val subtree_slice : t -> string -> root:Doc.node_id -> int * int
(** [subtree_slice idx tag ~root] is the half-open interval [(lo, hi)]
    into [postings idx tag] holding the nodes with [tag] that are {e proper}
    descendants of [root]. *)

val fold_descendants :
  t -> string -> root:Doc.node_id -> ('a -> Doc.node_id -> 'a) -> 'a -> 'a

val descendants : t -> string -> root:Doc.node_id -> Doc.node_id list

val children : t -> string -> parent:Doc.node_id -> Doc.node_id list
(** The children of [parent] bearing [tag], in document order — a walk
    of the document's actual child list (first-child/next-sibling via
    subtree extents), O(number of children) rather than O(subtree). *)

val count_descendants : t -> string -> root:Doc.node_id -> int
(** Cardinality of {!subtree_slice}, in O(log n). *)
