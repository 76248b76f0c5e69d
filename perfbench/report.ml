(* Metrics and the result line.  Every figure is computed by a pure
   function of what the run collected, and every ratio and percentile is
   guarded against an empty window, so a run that completes nothing
   still prints finite numbers. *)

module Protocol = Wp_serve.Protocol
module Json = Wp_json.Json

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let print_metric x = Printf.printf "%-40s %16.6f %s\n" x.name x.value x.unit

let result_json ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun x ->
                  ( x.name,
                    Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit) ] ))
                metrics) );
       ])

let float_member key json =
  match Json.member key json with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.0

(* Per-layer figures read from outside: reply fields and the Metrics op.
   A merged reply's stats keep the slowest document's wall time but sum
   the counters over its documents, so wall-time figures come from
   single-document replies only, where both describe the same run. *)
let served_layers stream samples (c : Served.server_counters) =
  let ok =
    List.filter_map
      (fun (s : Served.sample) ->
        match s.reply with
        | Ok r when r.Protocol.status = Protocol.Ok -> Some (s, r)
        | _ -> None)
      samples
  in
  let n = float_of_int (List.length ok) in
  let stats = List.filter_map (fun (_, (r : Protocol.response)) -> r.stats) ok in
  let single =
    List.filter_map
      (fun ((s : Served.sample), (r : Protocol.response)) ->
        match stream.(s.idx mod Array.length stream) with
        | { Seeded.doc = Some _; _ } -> r.stats
        | _ -> None)
      ok
  in
  let sum_of stats key = List.fold_left (fun a j -> a +. float_member key j) 0.0 stats in
  let sum = sum_of stats in
  let single_wall_ns = sum_of single "wall_seconds" *. 1e9 in
  let hits = sum "cache_hits" and misses = sum "cache_misses" in
  let plan_lookups = float_of_int (c.plan_hits + c.plan_misses) in
  [
    m "service.handle_p50_ms" "ms"
      (Stat.median (List.map (fun (_, (r : Protocol.response)) -> r.elapsed_ms) ok));
    m "event.overhead_p50_ms" "ms"
      (Stat.median
         (List.map
            (fun ((s : Served.sample), (r : Protocol.response)) ->
              s.latency_ms -. r.elapsed_ms)
            ok));
    m "engine.wall_p50_ms" "ms"
      (Stat.median (List.map (fun j -> float_member "wall_seconds" j *. 1e3) single));
    m "engine.server_ops_per_query" "count" (Stat.ratio (sum "server_ops") n);
    m "engine.comparisons_per_query" "count" (Stat.ratio (sum "comparisons") n);
    m "engine.matches_created_per_query" "count" (Stat.ratio (sum "matches_created") n);
    m "engine.matches_pruned_per_query" "count" (Stat.ratio (sum "matches_pruned") n);
    m "engine.ns_per_server_op" "ns"
      (Stat.ratio single_wall_ns (sum_of single "server_ops"));
    m "engine.ns_per_comparison" "ns"
      (Stat.ratio single_wall_ns (sum_of single "comparisons"));
    m "candidate_cache.hit_rate" "ratio" (Stat.ratio hits (hits +. misses));
    m "catalog.plan_cache_hit_rate" "ratio"
      (Stat.ratio (float_of_int c.plan_hits) plan_lookups);
    m "catalog.plan_cache_evictions" "count" (float_of_int c.plan_evictions);
    m "pool.shed" "count" (float_of_int c.shed);
  ]

let classify oracle stream (s : Served.sample) =
  match s.reply with
  | Error _ -> Stat.Transport
  | Ok r -> (
      match r.Protocol.status with
      | Protocol.Overloaded -> Stat.Overloaded
      | Protocol.Partial -> Stat.Partial
      | Protocol.Error ->
          prerr_endline
            ("perfbench: error reply: " ^ Option.value r.error ~default:"(no message)");
          Stat.Error_reply
      | Protocol.Ok -> (
          let req = stream.(s.idx mod Array.length stream) in
          match Oracle.check oracle req r.answers with
          | None -> Stat.Ok_reply
          | Some why ->
              prerr_endline ("perfbench: wrong answer: " ^ why);
              Stat.Wrong_answer))

(* End-to-end figures of one timed window.  Pure, so an empty window
   can be checked to print finite numbers. *)
let end_to_end ~setup_s ~window_s ~cpu_ms ~rss_mb ~(tally : Stat.tally) samples =
  let latencies = List.map (fun (s : Served.sample) -> s.latency_ms) samples in
  let ttfa = List.filter_map (fun (s : Served.sample) -> s.ttfa_ms) samples in
  let ok = float_of_int (tally.attempted - tally.failed) in
  [
    m "setup_s" "s" setup_s;
    m "throughput_rps" "1/s" (Stat.ratio ok window_s);
    m "latency_p50_ms" "ms" (Stat.percentile latencies 0.5);
    m "latency_p99_ms" "ms" (Stat.percentile latencies 0.99);
    m "ttfa_p50_ms" "ms" (Stat.median ttfa);
    m "error_rate" "ratio" (Stat.error_rate tally);
    m "cpu_ms_per_query" "ms" (Stat.ratio cpu_ms ok);
    m "server_rss_mb" "MiB" rss_mb;
  ]

