(** One document's memo of the statistics every plan compile needs.

    Documents are immutable, and ad-hoc queries keep reusing the same
    component predicates and the same root tags, so a plan-cache miss
    need not re-sweep the document.  The table holds two bounded
    {!Lru} maps, filled lazily by compiles:

    - sweeps ({!Tfidf.sweep}): the satisfying-root count (the idf
      denominator) and a bitset over the source postings marking which
      of them satisfy, keyed by the component with its query node
      erased — about one bit per root-tag posting per component;
    - root candidates ([Plan.roots], with bitsets over the root tag's
      postings), keyed by the root spec's tag, value and candidate
      relation plus the configuration's [value_relaxation].

    A table belongs to one document: nothing in a key names the
    document, so it must only ever be filled from one index.  Keys carry
    client-supplied values, so each map holds at most 4,096 entries,
    least recently used evicted first.

    Thread-safe: a leaf mutex (never held while taking another lock)
    guards both maps.  A missing value is computed outside it and
    inserted under it; when two domains fill the same key at once, the
    first insert wins and both return it. *)

val mutex_name : string
(** ["score.component_table.mutex"], ranked as a leaf in the declared
    lock hierarchy. *)

type t

val create : unit -> t
(** An empty table. *)

type sweep = {
  count : int;  (** source postings with a satisfying target *)
  bits : Bytes.t;
      (** bit [i] (byte [i / 8], bit [i mod 8]) is set when the [i]-th
          posting of the component's [q0] tag (the document root alone,
          for the root component) has a satisfying target *)
}

val sweep_create : int -> Bytes.t
(** An all-clear bitset over [n] postings, padded to whole 64-bit
    words so that it can be read a word at a time
    ([Bytes.get_int64_le] at [8 * w] holds bits [64 * w] to
    [64 * w + 63]).  Bitsets over the same postings have one length. *)

val sweep_set : Bytes.t -> int -> unit
(** Set bit [i]. *)

val sweep_mem : Bytes.t -> int -> bool
(** Whether bit [i] is set. *)

val sweep : t -> Component.t -> compute:(unit -> sweep) -> sweep
(** The memoized sweep for the component, or [compute ()] inserted on
    a miss.  If [compute] raises, nothing is inserted.  The bitset is
    shared: callers must not mutate it. *)

type roots_key = {
  tag : string;
  value : string option;
  relation : Wp_relax.Relation.t;  (** the root spec's candidate relation *)
  value_relaxation : bool;
}

(** The root candidates of a key, and the two per-root facts a seed
    class needs that no {!sweep} holds.  Each bitset is over the
    postings of the key's tag, bit [i] standing for its [i]-th posting
    as in a {!sweep} of a component whose [q0] tag is that tag; its
    bits are set only at candidates. *)
type roots = {
  nodes : Wp_xml.Doc.node_id array;  (** the candidates, in document order *)
  candidates : Bytes.t;  (** the candidates' postings *)
  depth1 : Bytes.t;  (** candidates that are children of the document root *)
  content_exact : Bytes.t;
      (** candidates whose value matches the key's value exactly (every
          candidate when the key has no value) *)
}

val roots : t -> roots_key -> compute:(unit -> roots) -> roots
(** The memoized root candidates, or [compute ()] inserted on a miss.
    The array and the bitsets are shared by every plan that asks for
    the same key: callers must not mutate them. *)

type stats = { hits : int; misses : int; size : int }
(** Lookups that found an entry, lookups that did not, and entries
    held, both maps together. *)

val stats : t -> stats
