(** Frozen, columnar XML documents.

    A [Doc.t] stores element nodes in document (pre)order, so that node
    identifiers double as preorder ranks: the descendants of node [i] are
    exactly the identifiers in the half-open interval
    [(i, subtree_end doc i)].  This supports constant-time structural
    predicates and contiguous-range subtree scans, the two operations the
    Whirlpool servers rely on.

    Every document has one representation, the columns of a [.wpidx]
    file: {!of_tree} fills them in memory in one preorder pass, and
    [Wp_storage] maps them from a file in place through {!of_columns}.
    Dewey labels are not stored; {!dewey} rebuilds one from the child
    ranks in O(depth). *)

type node_id = int
(** Preorder rank of a node; the (possibly synthetic) root is [0]. *)

type int32_column =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type char_column =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type columns = {
  tags : string array;  (** distinct tags, first-occurrence order *)
  tag_ids : int32_column;  (** per node: index into [tags] *)
  parents : int32_column;  (** per node: parent id + 1; [0] for the root *)
  subtree_ends : int32_column;  (** per node: one past its last descendant *)
  depths : int32_column;  (** per node: [0] for the root *)
  ranks : int32_column;  (** per node: 1-based child rank; [0] for the root *)
  val_pos : int32_column;
      (** per node: 1 + offset of its value in [value_bytes]; [0] when
          the node has no value *)
  val_len : int32_column;  (** per node: value length in bytes *)
  value_bytes : char_column;  (** every value, concatenated in preorder *)
}
(** The per-node columns, one element per node. *)

type t

val of_tree : Tree.t -> t
(** Freeze a single tree; its root becomes node [0].
    @raise Invalid_argument beyond [2^31 - 1] nodes or value bytes. *)

val of_forest : ?root_tag:string -> Tree.t list -> t
(** Freeze a forest under a synthetic root (default tag ["doc-root"]),
    matching the paper's data model of "a forest of node labeled trees". *)

val of_columns : columns -> t
(** A document over existing columns, without copying them.  Only the
    column lengths are checked: the columns must describe a valid
    preorder encoding, as {!of_tree} writes it.
    @raise Invalid_argument on an empty document or on node columns of
    different lengths. *)

val columns : t -> columns
(** The document's own columns (no copy); they must not be mutated. *)

val root : t -> node_id
val size : t -> int

val tag : t -> node_id -> string

val value : t -> node_id -> string option
(** A fresh copy of the node's value bytes.  Value tests on hot paths
    use {!value_equals} and {!value_has_token}, which read the value
    column in place. *)

val value_equals : t -> node_id -> string -> bool
(** [value_equals d i s] is [value d i = Some s], without a copy. *)

val value_has_token : t -> node_id -> string -> bool
(** Whether [s] is one of the tokens [String.split_on_char ' '] cuts
    the node's value into (false when the node has no value), without
    a copy. *)

val dewey : t -> node_id -> Dewey.t
(** Rebuilt from the child ranks up the parent chain, in O(depth). *)

val parent : t -> node_id -> node_id option
val depth : t -> node_id -> int

val subtree_end : t -> node_id -> node_id
(** [subtree_end d i] is one past the last descendant of [i]; the subtree
    rooted at [i] occupies ids [i .. subtree_end d i - 1]. *)

val children : t -> node_id -> node_id list

val is_parent : t -> parent:node_id -> child:node_id -> bool
val is_ancestor : t -> anc:node_id -> desc:node_id -> bool
(** Proper ancestorship, in O(1) via preorder intervals. *)

val to_tree : t -> node_id -> Tree.t
(** Rebuild the subtree rooted at a node (inverse of {!of_tree}). *)

val fold : (node_id -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over all nodes in document order. *)

val distinct_tags : t -> string list
(** Distinct tags in first-occurrence order. *)

val pp_node : t -> Format.formatter -> node_id -> unit
(** One-line [tag\[dewey\](value?)] rendering for diagnostics. *)
