(** The XPath structural axes of tree-pattern edges over frozen
    documents. *)

type t = Child | Descendant

val select : Index.t -> t -> from:Doc.node_id -> tag:string -> Doc.node_id list
(** All nodes with [tag] reachable from [from] along the axis, in
    document order. *)
