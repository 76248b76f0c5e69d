(** Interprocedural call-graph summaries over the repo's typedtrees.

    One summary per named top-level binding (nested module paths
    included, e.g. ["Min_heap.push"]): the names it references, the
    blocking syscalls / allocators it touches directly, the locks it
    acquires, whether it consults a cooperative-stop signal, and its
    {e suspect loops} — [while] loops and self-recursions whose every
    self-call passes syntactically unchanged arguments.  A fixpoint
    saturates the transitive facts along resolved references, carrying
    a readable witness chain for "may block" and "may allocate".

    The Sentinel's interprocedural rules (lock ranks, blocking and
    allocation through calls) and its cancellation-totality check are
    phrased over these summaries; the tables of names and the lock
    hierarchy are injected so this module stays independent of the rule
    definitions.

    Scoped escapes: a [[@wp.allow "rule why"]] at the origin of a fact
    keeps it out of the summary (the justification covers callers too);
    [[@wp.bounded "why"]] marks the loops under it statically bounded.
    Bare [wp.bounded] attributes are collected in [naked_bounded] for
    the caller to report. *)

type tables = {
  blocking : string list;
  allocators : string list;
  stop_names : string list;
      (** ident / record-field last components that count as consulting
          the stop signal ([should_stop], [stopped], ...) *)
  lock_of_text : unit_name:string -> string -> string option;
  helper_lock : unit_name:string -> string -> string option;
  is_helper : string -> bool;
  rank_of : string -> int option;
}

type loop_kind = While_loop | Self_recursion of string

type loop = {
  l_line : int;
  l_kind : loop_kind;
  l_consults : bool;
  l_bounded : bool;
  l_refs : string list;
  l_allowed : string list;
}

type fn = {
  f_unit : string;
  f_path : string;
  f_source : string;
  f_line : int;
  f_hot : bool;
  f_serve_entry : bool;  (** tagged [[@@wp.serve_entry]] *)
  f_refs : string list;
  f_blocks : string list;
  f_allocs : string list;
  f_acquires : (string * int option) list;
  f_consults : bool;
  f_loops : loop list;
  mutable t_blocks : string option;  (** transitive; witness chain *)
  mutable t_allocs : string option;
  mutable t_acquires : (string * int option) list;
  mutable t_consults : bool;
}

type naked_attr = { n_source : string; n_line : int }

type db = {
  fns : (string * string, fn) Hashtbl.t;
  unit_names : (string, unit) Hashtbl.t;
  aliases : (string * string, string) Hashtbl.t;
  mutable naked_bounded : naked_attr list;
}

(** {2 Typedtree helpers} shared with the Sentinel's per-unit rules. *)

val line : Location.t -> int
(** Start line of a location. *)

val norm_path : Path.t -> string
(** A path's name without its [Stdlib.] prefix. *)

val has_attr : string -> Parsetree.attributes -> bool

type allow = { rule : string; justified : bool; aloc : Location.t }
(** One [[@wp.allow "rule justification"]]: its rule name (empty when
    the payload is not a string) and whether a justification follows. *)

val allows_of : Parsetree.attributes -> allow list

val lock_target : Typedtree.expression -> string option
(** [Mutex.lock m], [S.lock t.mutex], [t.lock ()]: the rendered
    receiver of a lock acquisition ([t.mutex], [shared.topk_mutex],
    ...), [None] for any other expression. *)

val build : tables -> Discover.unit_info list -> db
(** Harvest every unit and saturate the transitive facts. *)

val resolve : db -> unit_name:string -> scope:string list -> string -> fn option
(** Resolve a name referenced inside module path [scope] of [unit_name]
    (e.g. [["Make"]] in a functor's body) to its summary: a binding of
    the innermost enclosing module first ([emit] inside [Make] is
    [Make.emit]), then bare names in the same unit, nested-module
    paths, top-level module aliases, and dune wrapped-library
    spellings ([Whirlpool.Engine.run], [Whirlpool__Server.process],
    [Whirlpool__.Server.process]). *)

val resolve_ref : db -> fn -> string -> fn option
(** {!resolve} a name the summary's body references. *)

val reachable_from_roots :
  db -> is_root:(fn -> bool) -> (string * string, unit) Hashtbl.t
(** Keys of every summary reachable from the root set along resolved
    references. *)

val iter_fns : db -> (fn -> unit) -> unit
