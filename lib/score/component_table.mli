(** One document's memo of the statistics every plan compile needs.

    Documents are immutable, and ad-hoc queries keep reusing the same
    component predicates and the same root tags, so a plan-cache miss
    need not re-sweep the document.  The table holds two bounded
    {!Lru} maps, filled lazily by compiles:

    - satisfying-root counts ({!Tfidf.satisfying_roots}, the idf
      denominator), keyed by the component with its query node erased;
    - root-candidate arrays ([Plan.roots]), keyed by the root spec's
      tag, value and candidate relation plus the configuration's
      [value_relaxation].

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

val satisfying_roots : t -> Component.t -> compute:(unit -> int) -> int
(** The memoized count for the component, or [compute ()] inserted on
    a miss.  If [compute] raises, nothing is inserted. *)

type roots_key = {
  tag : string;
  value : string option;
  relation : Wp_relax.Relation.t;  (** the root spec's candidate relation *)
  value_relaxation : bool;
}

val roots :
  t -> roots_key -> compute:(unit -> Wp_xml.Doc.node_id array) ->
  Wp_xml.Doc.node_id array
(** The memoized root candidates, or [compute ()] inserted on a miss.
    The array is shared by every plan that asks for the same key:
    callers must not mutate it. *)

type stats = { hits : int; misses : int; size : int }
(** Lookups that found an entry, lookups that did not, and entries
    held, both maps together. *)

val stats : t -> stats
