(** The corpus catalog — documents loaded once, plans compiled once.

    A long-lived query service amortizes the expensive per-query steps
    of the one-shot CLI: parsing/indexing the document (or O(1)
    memory-mapping a compacted [.wpidx] index), and compiling the
    (query, document) plan with its sampled routing estimates.  The
    catalog keeps every document's {!Wp_xml.Index} warm for the life of
    the process and memoizes compiled plans in a bounded {!Lru} cache
    keyed by (query text, document name).  A miss still reuses earlier
    work: each document carries a {!Wp_score.Component_table} of the
    idf counts and root candidates its compiles have computed.

    A query that names no document runs over every loaded document, in
    load order, and {!Wp_serve.Service} merges their top-k answers.

    All operations are thread-safe: worker domains resolve documents
    and plans concurrently under the catalog's internal mutex.  A plan
    is compiled outside that mutex, so a miss never stalls another
    worker's lookups; concurrent misses on one (query, document) may
    each compile, but all of them get the one entry that was cached
    first. *)

type doc = private {
  name : string;  (** corpus-unique name clients address (file basename) *)
  path : string;
  index : Wp_xml.Index.t;
  nodes : int;
  mutable dataguide : Wp_stats.Dataguide.t option;
      (** the document's annotated strong dataguide once {!dataguide}
          has built it (on a twig-backend query), cached next to the
          warm index for the life of the catalog entry; read and
          written under the catalog mutex *)
  memo : Wp_score.Component_table.t;
      (** the document's idf counts and root candidates, created empty
          at load and filled by the compiles of its plans; a reload
          brings a fresh one *)
}

type t

val create :
  ?plan_cache:int -> ?config:Wp_relax.Relaxation.config -> unit -> t
(** [plan_cache] (default 128) bounds the compiled-plan LRU; [config]
    (default all relaxations) applies to every compiled plan. *)

val read_index : string -> (Wp_xml.Index.t, string) result
(** Load and index a document from an XML file or a [.wpidx] on-disk
    index (detected by content).  The catalog-independent loader the
    CLI also uses; [Error] carries a printable message. *)

val load_file : t -> ?name:string -> string -> (doc, string) result
(** Load one document into the corpus.  [name] defaults to the file's
    basename; reloading an existing name replaces the document and
    drops every cached plan compiled for it. *)

val load_dir : t -> string -> (doc list, string) result
(** Load every [*.xml] and [*.wpidx] file of a directory, in name
    order.  [Error] on an unreadable directory or if any file
    fails to load; on success the list of loaded documents. *)

val docs : t -> doc list
(** Loaded documents, in load order. *)

val find : t -> string -> doc option

val dataguide : t -> doc -> Wp_stats.Dataguide.t
(** The document's dataguide, built on first use outside the catalog
    mutex, so a build stalls no other lookup.  Safe to call from any
    number of worker domains at once: concurrent first calls may each
    build, but all of them get the guide that was cached first. *)

(** Why a query has no plan: [Bad_query] for parse/compile failures
    (the client's request is malformed), [Rejected] when
    {!Whirlpool.Plan.compile}'s static check refused a well-formed
    query ({!Wp_analysis.Lint.Rejected}) — the service maps them to the
    [bad_request] / [lint_rejected] wire codes respectively. *)
type plan_error =
  | Bad_query of string
  | Rejected of string

val plan_error_message : plan_error -> string

(** A memoized plan.  [cache] carries nothing: it stays only because
    perfbench's replay still reads the field, and goes with the next
    change to the benchmark's protocol. *)
type cached_plan = { plan : Whirlpool.Plan.t; cache : unit }

val plan_for : t -> doc -> string -> (cached_plan, plan_error) result
(** Compiled plan for a query
    string against a document, served from the plan cache when warm;
    rejected plans are not cached.  Each call counts one plan-cache
    lookup (hit or miss); a miss compiles without holding the catalog
    mutex, through the document's {!doc.memo}.  A plan is served only
    for the index it was compiled against: a [doc] that a reload has
    replaced gets a fresh plan, and that plan is not cached. *)

type cache_stats = {
  size : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
  hit_rate : float;  (** in [0, 1]; [0.] before the first lookup *)
}

val plan_cache_stats : t -> cache_stats

val component_table_stats : t -> Wp_score.Component_table.stats
(** Hits, misses and size of every loaded document's component table,
    summed.  A reload replaces a document's table, so its counts leave
    the sum. *)
