type t = {
  mutable server_ops : int;
  mutable comparisons : int;
  mutable matches_created : int;
  mutable matches_pruned : int;
  mutable matches_died : int;
  mutable routing_decisions : int;
  mutable completed : int;
  mutable wall_ns : int64;
}

let create () =
  {
    server_ops = 0;
    comparisons = 0;
    matches_created = 0;
    matches_pruned = 0;
    matches_died = 0;
    routing_decisions = 0;
    completed = 0;
    wall_ns = 0L;
  }

let reset t =
  t.server_ops <- 0;
  t.comparisons <- 0;
  t.matches_created <- 0;
  t.matches_pruned <- 0;
  t.matches_died <- 0;
  t.routing_decisions <- 0;
  t.completed <- 0;
  t.wall_ns <- 0L

let add acc x =
  acc.server_ops <- acc.server_ops + x.server_ops;
  acc.comparisons <- acc.comparisons + x.comparisons;
  acc.matches_created <- acc.matches_created + x.matches_created;
  acc.matches_pruned <- acc.matches_pruned + x.matches_pruned;
  acc.matches_died <- acc.matches_died + x.matches_died;
  acc.routing_decisions <- acc.routing_decisions + x.routing_decisions;
  acc.completed <- acc.completed + x.completed;
  if Int64.compare x.wall_ns acc.wall_ns > 0 then acc.wall_ns <- x.wall_ns

let wall_seconds t = Int64.to_float t.wall_ns /. 1e9

let pp ppf t =
  Format.fprintf ppf
    "ops=%d cmp=%d created=%d pruned=%d died=%d routed=%d completed=%d \
     wall=%.4fs"
    t.server_ops t.comparisons t.matches_created t.matches_pruned
    t.matches_died t.routing_decisions t.completed (wall_seconds t)

(* ["cache_hits"] and ["cache_misses"] are constant zeros left from the
   removed candidate cache: perfbench's repeat test rejects a reply
   without them.  They go with the next change to the benchmark's
   protocol. *)
let to_json t =
  let open Wp_json.Json in
  Obj
    [
      ("server_ops", Int t.server_ops);
      ("comparisons", Int t.comparisons);
      ("matches_created", Int t.matches_created);
      ("matches_pruned", Int t.matches_pruned);
      ("matches_died", Int t.matches_died);
      ("routing_decisions", Int t.routing_decisions);
      ("completed", Int t.completed);
      ("cache_hits", Int 0);
      ("cache_misses", Int 0);
      ("wall_seconds", Float (wall_seconds t));
    ]

(* Pull-style registration: the registry reads the accumulator at
   snapshot time, so the engine hot path never touches the registry.
   Reading a mutable int field without the owner's lock is sound in
   OCaml (single-word loads never tear); a snapshot racing an update
   may be one increment stale, which Prometheus scraping tolerates. *)
let register ?(prefix = "wp_engine_") t reg =
  let c name help read =
    Wp_obs.Registry.pull_counter reg ~help (prefix ^ name) (fun () ->
        float_of_int (read ()))
  in
  c "server_ops_total" "partial matches processed by servers" (fun () ->
      t.server_ops);
  c "comparisons_total" "candidate nodes examined" (fun () -> t.comparisons);
  c "matches_created_total" "partial matches spawned" (fun () ->
      t.matches_created);
  c "matches_pruned_total" "matches dropped by top-k score pruning"
    (fun () -> t.matches_pruned);
  c "matches_died_total" "matches dropped for invalidity" (fun () ->
      t.matches_died);
  c "routing_decisions_total" "adaptive/static router choices" (fun () ->
      t.routing_decisions);
  c "completed_total" "matches that visited every server" (fun () ->
      t.completed)
