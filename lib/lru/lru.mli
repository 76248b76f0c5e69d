(** A small bounded LRU cache.

    Backs the serve catalog's compiled-plan cache and each document's
    {!Wp_score.Component_table}: at most [capacity] entries,
    the least-recently-used one evicted on overflow.  Lookups and
    insertions are O(1) (hash table plus an intrusive doubly-linked
    recency list).  Not thread-safe — callers serialize access (the
    catalog and the component table each hold their own mutex). *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** [capacity >= 1], else [Invalid_argument]. *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Counts a hit or a miss, and refreshes the entry's recency. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Recency- and counter-neutral membership probe. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace, evicting the least-recently-used entry when the
    cache is full.  The new entry becomes most-recent. *)

val add_absent : ('k, 'v) t -> 'k -> 'v -> 'v
(** [add_absent t key value] returns the resident value when [key] is
    present, else {!add}s and returns [value].  Either way the entry
    becomes most-recent; no hit or miss is counted. *)

val find_or_add : ('k, 'v) t -> 'k -> compute:('k -> 'v) -> 'v
(** {!find}, or on a miss [compute], insert and return.  If [compute]
    raises, nothing is inserted. *)

val filter : ('k, 'v) t -> ('k -> 'v -> bool) -> unit
(** Drop every entry for which the predicate is false.  Counts no
    eviction, hit or miss, and keeps the survivors' recency order. *)

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
val evictions : ('k, 'v) t -> int

val hit_rate : ('k, 'v) t -> float
(** Hits over lookups, in [0, 1]; [0.] before the first lookup (never
    [nan]). *)

val keys : ('k, 'v) t -> 'k list
(** Most-recently-used first. *)
