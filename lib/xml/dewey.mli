(** Dewey order encoding of XML node positions.

    A Dewey label is the sequence of 1-based child ranks on the path from
    the document root to a node; the root itself is labeled [[||]].  The
    paper stores query-relevant nodes "in indexes along with their Dewey
    encoding" (Section 6.2.1); here {!Doc} answers the structural tests
    from preorder ids and subtree ends, and labels only render answers. *)

type t = private int array
(** A Dewey label.  The representation is exposed read-only; construction
    goes through {!of_array}, which enforces that every component is
    positive. *)

val of_array : int array -> t
(** [of_array cs] builds a label from child ranks.  The array is copied.
    @raise Invalid_argument if any rank is [< 1]. *)

val is_ancestor : t -> t -> bool
(** [is_ancestor a d] iff [a] is a {e proper} ancestor of [d], i.e. [a] is
    a proper prefix of [d]. *)

val pp : Format.formatter -> t -> unit
(** Prints the conventional dotted form, e.g. [1.3.2]; the root prints as
    [ε]. *)

val to_string : t -> string
