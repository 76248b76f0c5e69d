(** The Whirlpool Sentinel: typedtree-level static checks.

    Rules over the repo's own compiled units, each reported as a
    {!Wp_analysis.Diagnostic} error with code [sentinel/<rule>] and a
    [file.ml:LINE:]-prefixed message:

    - [sentinel/lock-rank] — acquisitions resolved against the
      declared hierarchy ({!Wp_serve.Pool.lock_rank}); taking a lock
      of equal or lower rank while one is held is flagged.
    - [sentinel/blocking-under-lock] — [Unix.read]/[write]/[select]/
      [sleepf]/[connect]/[accept]/[recv] inside a held section.
    - [sentinel/clock] — any reference to [Unix.gettimeofday] or
      [Sys.time]; time comes from the monotonic [Clock] modules.
    - [sentinel/hot-alloc] — functions tagged [[@@wp.hot]] must not
      reference a known allocator.
    - [sentinel/lock-leak] — a lock acquisition whose release is not
      guarded by [Fun.protect ~finally].
    - [sentinel/wire-total] — closed nullary variants with
      [_to_string]/[_of_string] pairs must round-trip every
      constructor through distinct wire strings.
    - [sentinel/cancel-total] — every suspect loop ([while], or a
      self-recursion whose self-calls never change an argument)
      reachable from [Wp_serve.Service] request handling (or a
      [[@@wp.serve_entry]]-tagged root) must consult the
      cooperative-stop signal or be statically bounded
      ([[@wp.bounded "why"]]).

    The lock-rank, blocking-under-lock and hot-alloc rules also run on
    call-graph summaries ({!Summary}): a call whose callee transitively
    blocks, allocates, or acquires a lower-ranked lock is flagged at the
    call site, with a witness chain in the message.

    [[@wp.allow "rule justification"]] on an enclosing expression or
    binding suppresses a rule in its scope (at a fact's origin it also
    keeps the fact out of the interprocedural summaries); a missing
    justification is itself a finding ([sentinel/allow]), as is a bare
    [[@wp.bounded]].

    Findings are ordered deterministically by (file, line, rule,
    message), so JSON output diffs are stable in CI. *)

val all_rules : string list

val check_unit : Discover.unit_info -> Wp_analysis.Diagnostic.t list
(** All findings for one unit, deterministically ordered.  The unit is
    summarized on its own, so cross-call rules see intra-unit helpers
    only (used by the fixture tests); whole-tree scans should use
    {!run}. *)

val compare_findings :
  Wp_analysis.Diagnostic.t -> Wp_analysis.Diagnostic.t -> int
(** The (file, line, rule, message) order used for all Sentinel
    output. *)

type report = {
  units : int;  (** implementation units checked *)
  diagnostics : Wp_analysis.Diagnostic.t list;
  load_errors : string list;  (** unreadable / non-implementation cmts *)
}

val run : ?dirs:string list -> root:string -> unit -> report
(** Discover (see {!Discover.find_cmts}), load and check every unit
    under [root], on whole-program summaries built first. *)
