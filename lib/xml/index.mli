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

type int32_view =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The element type of a memory-mapped postings section. *)

val of_mapped :
  doc:Doc.t ->
  postings:int32_view ->
  extents:(string * int * int) list ->
  t
(** An index whose per-tag postings are [(offset, length)] windows into
    one shared [Int32] bigarray — the postings section of a
    memory-mapped on-disk index ([Wp_storage]).  Lookups read the
    mapped pages directly; {!ids} materializes an [int array] copy per
    call on this backend ({!postings} and the range functions below
    never do).  Each
    extent's window must hold that tag's node ids in document order —
    the storage layer guarantees this; only window bounds are checked
    here.
    @raise Invalid_argument if an extent exceeds the postings view. *)

val doc : t -> Doc.t
(** The document this index was built from. *)

val ids : t -> string -> int array
(** All nodes with the given tag, in document order; empty for tags
    absent from the document.  On the in-memory backend the array is
    owned by the index and must not be mutated; on a mapped backend it
    is a fresh copy per call — prefer {!postings} or the range
    functions below on hot paths. *)

val count : t -> string -> int

type postings
(** One tag's postings read in place: the index's own array on the
    in-memory backend, the mapped window on a [.wpidx] backend — no
    copy on either. *)

val postings : t -> string -> postings
(** The postings of a tag ({!wildcard} included); empty for tags absent
    from the document. *)

val postings_length : postings -> int

val posting : postings -> int -> Doc.node_id
(** [posting p i] is the [i]-th node id of [p] (document order).
    @raise Invalid_argument unless [0 <= i < postings_length p]. *)

val subtree_slice : t -> string -> root:Doc.node_id -> int * int
(** [subtree_slice idx tag ~root] is the half-open interval [(lo, hi)]
    into [ids idx tag] holding the nodes with [tag] that are {e proper}
    descendants of [root]. *)

val iter_descendants : t -> string -> root:Doc.node_id -> (Doc.node_id -> unit) -> unit
(** Iterate the proper descendants of [root] bearing [tag]. *)

val fold_descendants :
  t -> string -> root:Doc.node_id -> ('a -> Doc.node_id -> 'a) -> 'a -> 'a

val descendants : t -> string -> root:Doc.node_id -> Doc.node_id list

val children : t -> string -> parent:Doc.node_id -> Doc.node_id list
(** The children of [parent] bearing [tag], in document order — a walk
    of the document's actual child list (first-child/next-sibling via
    subtree extents), O(number of children) rather than O(subtree). *)

val count_descendants : t -> string -> root:Doc.node_id -> int
(** Cardinality of {!subtree_slice}, in O(log n). *)
