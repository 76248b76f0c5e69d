(** Execution counters — the paper's evaluation measures.

    [server_ops] and [matches_created] are the y-axes of Figures 7 and
    Table 2; [comparisons] is the join-predicate-comparison count of the
    motivating example; [routing_decisions] feeds the adaptivity-overhead
    model of Figure 8. *)

type t = {
  mutable server_ops : int;  (** partial matches processed by servers *)
  mutable comparisons : int;  (** candidate nodes examined (join predicate comparisons) *)
  mutable matches_created : int;
      (** partial matches spawned, root tuples included: every root
          candidate counts once, whether or not its seed is built *)
  mutable seeds_materialized : int;
      (** root seed matches actually built — Whirlpool-S builds a seed
          only when its bound class is popped, the other engines build
          every live root's seed up front *)
  mutable matches_pruned : int;
      (** dropped by top-k score pruning, the roots of a seed class that
          dies unopened included *)
  mutable matches_died : int;
      (** dropped for (in)validity, e.g. exact-mode empty joins, and
          roots a required server with no candidate kills at seed time *)
  mutable routing_decisions : int;  (** adaptive/static router choices made *)
  mutable completed : int;  (** matches that visited every server *)
  mutable wall_ns : int64;  (** elapsed monotonic time *)
}

val create : unit -> t
val reset : t -> unit

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc] (wall time takes the max, the
    counters sum) — used to merge per-domain statistics. *)

val wall_seconds : t -> float

val pp : Format.formatter -> t -> unit

val to_json : t -> Wp_json.Json.t
(** Every counter plus wall seconds — the object {!Wp_serve} attaches
    to query replies.  It also carries ["cache_hits"] and
    ["cache_misses"], always 0, which perfbench's repeat test still
    requires. *)

val register : ?prefix:string -> t -> Wp_obs.Registry.t -> unit
(** Register each counter as a pull-style Prometheus counter named
    [prefix ^ field ^ "_total"] ([prefix] defaults to ["wp_engine_"]).
    The registry reads the accumulator at snapshot time; the engine hot
    path is untouched. *)
