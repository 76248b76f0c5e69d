(** XMark-like synthetic document generator.

    Deterministic substitute for the XMark benchmark generator used in the
    paper's evaluation (Section 6.2.1).  It emits auction-site documents
    with the three structural properties the relaxation experiments rely
    on:

    - {e recursive} elements — [parlist]/[listitem] nest, enabling edge
      generalization (a [parlist] may be a descendant rather than a child
      of [description]);
    - {e optional} elements — [incategory] and [name] may be absent from
      an item, enabling leaf deletion;
    - {e shared} elements — [text] occurs under both [mail] and
      [description] (and inside [listitem]), enabling subtree promotion.

    Documents are calibrated by serialized size in bytes so the paper's
    1Mb/10Mb/50Mb sweep keeps its meaning. *)

type profile = {
  p_description_parlist : float;
      (** probability a [description] holds a [parlist] rather than plain
          [text] *)
  p_parlist_recursion : float;
      (** probability a [listitem] nests a further [parlist] *)
  max_parlist_depth : int;
  min_listitems : int;
  max_listitems : int;
  p_mailbox : float;  (** probability an item has a [mailbox] *)
  min_mails : int;
  max_mails : int;
  p_mail_text : float;  (** probability a [mail] has a [text] body *)
  p_text_bold : float;
  p_text_keyword : float;
  p_text_emph : float;
  p_incategory : float;  (** probability an item has [incategory] refs *)
  max_incategories : int;
  p_item_name : float;  (** probability an item has a [name] *)
  regions : string array;
  people_per_item : float;
      (** [person] elements generated per item, for database bulk that
          exercises idf statistics without matching the benchmark
          queries *)
}

val default_profile : profile

val rich_profile : profile
(** Content-dense items (deep parlists, full mailboxes, frequent
    keywords): a document of them dominates a merged top-k. *)

val sparse_profile : profile
(** Structure-poor items: filler documents for a skewed corpus. *)

val profile_of_string : string -> profile option
(** ["default"], ["rich"] or ["sparse"]. *)

val item : profile -> Rng.t -> Wp_xml.Tree.t
(** One random [item] element. *)

val generate :
  ?profile:profile -> seed:int -> target_bytes:int -> unit -> Wp_xml.Tree.t
(** A full [site] document of approximately [target_bytes] serialized
    bytes (within one item of the target). *)

val generate_doc :
  ?profile:profile -> seed:int -> target_bytes:int -> unit -> Wp_xml.Doc.t

val tree_bytes : Wp_xml.Tree.t -> int
(** Serialized size of a tree in bytes (same formula as
    {!Wp_xml.Printer.doc_serialized_size}). *)

val tag_histogram : Wp_xml.Doc.t -> (string * int) list
(** Tag occurrence counts, most frequent first — used by tests to check
    the generated structure. *)
