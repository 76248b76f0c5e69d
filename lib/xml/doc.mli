(** Frozen, array-based XML documents.

    A [Doc.t] stores element nodes in document (pre)order, so that node
    identifiers double as preorder ranks: the descendants of node [i] are
    exactly the identifiers in the half-open interval
    [(i, subtree_end doc i)].  Together with per-node Dewey labels this
    supports constant-time structural predicates and contiguous-range
    subtree scans, the two operations the Whirlpool servers rely on. *)

type node_id = int
(** Preorder rank of a node; the (possibly synthetic) root is [0]. *)

type t

val of_tree : Tree.t -> t
(** Freeze a single tree; its root becomes node [0]. *)

val of_forest : ?root_tag:string -> Tree.t list -> t
(** Freeze a forest under a synthetic root (default tag ["doc-root"]),
    matching the paper's data model of "a forest of node labeled trees". *)

val of_ext :
  size:int ->
  tag:(node_id -> string) ->
  value:(node_id -> string option) ->
  parent:(node_id -> node_id) ->
  subtree_end:(node_id -> node_id) ->
  depth:(node_id -> int) ->
  rank:(node_id -> int) ->
  distinct_tags:string list ->
  t
(** An externally-backed document view: every per-node fact is fetched
    through the given accessors instead of materialized arrays.
    [Wp_storage] uses this to present a memory-mapped on-disk index as
    a [Doc.t] without loading it — pages fault in on demand.  [parent]
    must return [-1] for the root, [rank] the 1-based child rank ([0]
    for the root); Dewey labels are reconstructed on demand from
    [rank]/[parent] in O(depth).  The accessors must describe a valid
    preorder encoding — this constructor performs no validation beyond
    [size >= 1]; the storage layer validates before mapping.
    @raise Invalid_argument if [size < 1]. *)

val root : t -> node_id
val size : t -> int

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by document identity (physical equality), for
    per-document memos.  A structural key would compare two documents
    array by array, and raises on mapped ones, whose accessors are
    closures. *)

val tag : t -> node_id -> string
val value : t -> node_id -> string option
val dewey : t -> node_id -> Dewey.t
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
