(** Component predicates of a tree-pattern query — Definition 4.1.

    An XPath query decomposes into a set of "atomic" binary predicates
    [p(q0, qi)] relating the returned node [q0] to every other query node
    [qi], where [p] is the {e composed} axis of the pattern path between
    them (e.g. a grand-child reached through two [Pc] edges yields a
    depth-2 descendant predicate).  The root itself contributes the
    predicate relating it to the document root, as in the paper's
    [a\[parent::doc-root\]] example.  These predicates play the role that
    individual keyword-containment predicates play in IR: the query score
    is assembled from their independent idf and tf contributions. *)

type t = {
  node : Wp_pattern.Pattern.node_id;  (** the query node [qi] *)
  root_tag : string;  (** tag of [q0] (or of the synthetic document root) *)
  target_tag : string;  (** tag of [qi] *)
  target_value : string option;
      (** content constraint carried by [qi], if any *)
  value_tokens : bool;
      (** when true (relaxed components under content relaxation), the
          value constraint is satisfied by token containment rather than
          equality *)
  relation : Wp_relax.Relation.t;  (** composed axis from [q0] to [qi] *)
  from_doc_root : bool;
      (** [true] only for the root component, whose source is the
          document root rather than a [q0] binding *)
}

val of_pattern : ?doc_root_tag:string -> Wp_pattern.Pattern.t -> t array
(** One component per pattern node, indexed by node id; index 0 is the
    root component. *)

val relaxed : Wp_relax.Relaxation.config -> t -> t
(** The component with its relation relaxed as far as [config] allows
    (used to score bindings that satisfy only the relaxed level). *)

val relaxed_differs : Wp_relax.Relaxation.config -> t -> bool
(** Whether {!relaxed} accepts more than the component itself: its
    relation widened, or content relaxation weakens a value predicate.
    When it does not, the relaxed level is the exact one. *)

val pp : Format.formatter -> t -> unit
