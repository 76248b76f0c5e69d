(** Observability context — hierarchical span tracing and per-server
    cost attribution for one (or a few related) engine runs.

    A context is either {!disabled} — a shared, allocation-free no-op
    every engine accepts by default — or created with {!create}, in
    which case span constructors return [Some span] (subject to
    probabilistic {e sampling} and the {e span cap}) and the profile
    table aggregates exact per-server costs regardless of sampling.

    Span model: one {e root} span per query run, child spans per
    iteration batch and per server visit.  Spans carry typed engine
    {!event}s — one per router or server action, stamped and sequenced
    at receipt — and numeric attributes.  This is the engines' only
    event channel.  All operations are thread-safe: Whirlpool-M server
    domains report into one shared context.

    The internal mutex ({!mutex_name}) is leaf-only in the declared
    lock hierarchy: span and profile calls never take another lock. *)

type t
(** The context.  Passed to the engines through
    {!Whirlpool.Engine.Config.t}'s [obs] field. *)

type span

val disabled : t
(** The no-op context: every span constructor returns [None], every
    recording operation is a cheap early return, and the engines'
    counters and answers are bit-identical to a run without it. *)

val create : ?sample:float -> ?seed:int -> ?max_spans:int -> unit -> t
(** An enabled context.  [sample] (default [1.0]) is the probability
    that a root span — and therefore its whole subtree — is collected;
    the decision is made per {!root} call with a deterministic
    generator seeded by [seed] (default 0), so sampled runs are
    reproducible.  [max_spans] (default [4096]) caps collected spans;
    beyond it new spans are dropped (counted by {!dropped_spans}) while
    the profile table keeps aggregating. *)

val enabled : t -> bool

val mutex_name : string
(** ["obs.ctx.mutex"], leaf rank in {!Whirlpool.Race.lock_rank}. *)

(** {1 Engine events} *)

(** One router or server action on a partial match, identified by the
    match's id. *)
type event =
  | Popped of { id : int; score : float; max_possible : float }
  | Routed of { id : int; server : int }
  | Extended of { parent : int; id : int; server : int; bound : bool }
  | Pruned of { id : int }
  | Died of { id : int; server : int }
  | Completed of { id : int; score : float }

val pp_event : Format.formatter -> event -> unit
(** The one-line rendering used as the span-tree JSON's ["msg"]. *)

type stamped = { ts_ns : int64; seq : int; event : event }
(** An event stamped at receipt with the monotonic {!Clock} and a
    per-context sequence number, both taken under the context's mutex:
    [seq] totally orders one context's events, and [ts_ns] never
    decreases along it, so multi-threaded runs (whose per-domain
    emission order is nondeterministic) can still be ordered and
    diffed. *)

(** {1 Spans} *)

val root : t -> string -> span option
(** Open a root span ([None] when disabled, unsampled, or capped). *)

val child : t -> parent:span option -> string -> span option
(** Open a child span; [None] propagates from an absent parent, so an
    unsampled subtree costs nothing. *)

val emit : t -> span option -> event -> unit
(** Record a stamped event on the span; a no-op when the span is
    absent.  Callers on a hot path test the span before building the
    event, so a disabled or unsampled run allocates none.  Rendering is
    deferred to export. *)

val attr : t -> span option -> string -> float -> unit

val finish : t -> span option -> unit
(** Close the span (stamps its end time).  Finishing twice keeps the
    first stamp. *)

(** {1 Per-server cost profile} *)

type server_cost = {
  visits : int;  (** partial matches processed at the server *)
  comparisons : int;
  time_ns : int64;  (** wall time spent inside the server's joins *)
}

val visit : t -> server:int -> comparisons:int -> ns:int64 -> unit
(** Attribute one server operation's cost.  Exact (never sampled);
    no-op on a disabled context. *)

val per_server : t -> (int * server_cost) list
(** Aggregated costs, sorted by server id. *)

(** {1 Export} *)

type span_record = {
  sid : int;
  parent : int option;
  name : string;
  start_ns : int64;
  end_ns : int64;  (** equals [start_ns] when never finished *)
  events : stamped list;  (** in emission order *)
  attrs : (string * float) list;
}

val spans : t -> span_record list
(** Collected spans in creation order. *)

val events : t -> stamped list
(** Every event on the collected spans, in [seq] order. *)

val dropped_spans : t -> int

val span_tree_json : t -> Wp_json.Json.t
(** The span forest as nested JSON: each node carries [name],
    [start_ns], [duration_ns], [attrs], [events] (each
    [{"ts_ns", "msg"}], [msg] rendered by {!pp_event}) and
    [children]. *)

val profile_json : t -> Wp_json.Json.t
(** The per-server cost table as JSON (one object per server with
    visits, comparisons and milliseconds). *)
