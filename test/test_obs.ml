(* Observability layer: the metrics registry with its exporters, the
   span/profile context, and the no-interference property — an enabled
   context never changes what the engines compute, a disabled one costs
   (and records) nothing. *)

open Whirlpool
module Registry = Wp_obs.Registry
module Obs = Wp_obs.Obs

let idx = Lazy.force Fixtures.xmark_index
let parse = Fixtures.parse

(* --- registry --- *)

let test_counter_and_gauge () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~help:"h" "wp_test_total" in
  Registry.incr c;
  Registry.incr ~by:4 c;
  Alcotest.(check int) "counter value" 5 (Registry.counter_value c);
  let g = Registry.gauge reg "wp_test_gauge" in
  Registry.set g 2.5;
  let samples = Registry.snapshot reg in
  Alcotest.(check int) "two samples" 2 (List.length samples);
  (match samples with
  | [ c'; g' ] ->
      Alcotest.(check string) "counter name" "wp_test_total" c'.Registry.name;
      (match (c'.Registry.value, g'.Registry.value) with
      | Registry.Sample cv, Registry.Sample gv ->
          Alcotest.(check (float 0.0)) "counter sample" 5.0 cv;
          Alcotest.(check (float 0.0)) "gauge sample" 2.5 gv
      | _ -> Alcotest.fail "expected scalar samples")
  | _ -> Alcotest.fail "expected exactly two samples")

let test_dedup_and_kind_clash () =
  let reg = Registry.create () in
  let a = Registry.counter reg "wp_dup_total" in
  let b = Registry.counter reg "wp_dup_total" in
  Registry.incr a;
  Registry.incr b;
  Alcotest.(check int) "same underlying metric" 2 (Registry.counter_value a);
  let labeled = Registry.counter reg ~labels:[ ("s", "x") ] "wp_dup_total" in
  Registry.incr labeled;
  Alcotest.(check int) "labels separate series" 1
    (Registry.counter_value labeled);
  Alcotest.check_raises "kind clash"
    (Invalid_argument
       "Registry: wp_dup_total already registered with a different kind")
    (fun () -> ignore (Registry.gauge reg "wp_dup_total"))

let test_histogram_buckets () =
  let reg = Registry.create () in
  let h = Registry.histogram reg ~buckets:[ 1.0; 10.0 ] "wp_lat_ms" in
  List.iter (Registry.observe h) [ 0.5; 0.7; 5.0; 99.0 ];
  match Registry.snapshot reg with
  | [ { Registry.value = Registry.Buckets { buckets; sum; count }; _ } ] ->
      Alcotest.(check (list (pair (float 0.0) int)))
        "cumulative buckets"
        [ (1.0, 2); (10.0, 3); (infinity, 4) ]
        buckets;
      Alcotest.(check (float 1e-9)) "sum" 105.2 sum;
      Alcotest.(check int) "count" 4 count
  | _ -> Alcotest.fail "expected one histogram sample"

let test_pull_metrics () =
  let reg = Registry.create () in
  let n = ref 0 in
  Registry.pull_counter reg "wp_pull_total" (fun () -> float_of_int !n);
  n := 7;
  (match Registry.snapshot reg with
  | [ { Registry.value = Registry.Sample v; _ } ] ->
      Alcotest.(check (float 0.0)) "read at snapshot time" 7.0 v
  | _ -> Alcotest.fail "expected one sample");
  n := 9;
  match Registry.snapshot reg with
  | [ { Registry.value = Registry.Sample v; _ } ] ->
      Alcotest.(check (float 0.0)) "re-read each snapshot" 9.0 v
  | _ -> Alcotest.fail "expected one sample"

let test_prometheus_exposition () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~help:"requests" ~labels:[ ("status", "ok") ]
      "wp_requests_total"
  in
  Registry.incr ~by:3 c;
  Registry.set (Registry.gauge reg "wp_uptime_seconds") 1.25;
  Registry.observe (Registry.histogram reg ~buckets:[ 5.0 ] "wp_ms") 2.0;
  let page = Registry.to_prometheus (Registry.snapshot reg) in
  (match Registry.validate_exposition page with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid exposition: %s\n%s" m page);
  let contains needle = Test_stats.contains ~needle page in
  Alcotest.(check bool) "help line" true (contains "# HELP wp_requests_total requests");
  Alcotest.(check bool) "type line" true (contains "# TYPE wp_requests_total counter");
  Alcotest.(check bool) "labeled sample" true
    (contains "wp_requests_total{status=\"ok\"} 3");
  Alcotest.(check bool) "histogram bucket" true
    (contains "wp_ms_bucket{le=\"5\"} 1");
  Alcotest.(check bool) "+Inf bucket" true
    (contains "wp_ms_bucket{le=\"+Inf\"} 1");
  Alcotest.(check bool) "histogram count" true (contains "wp_ms_count 1")

let test_validate_exposition_rejects () =
  let bad page = Registry.validate_exposition page = Ok () in
  Alcotest.(check bool) "bad metric name" false (bad "9leading_digit 1\n");
  Alcotest.(check bool) "non-finite value" false (bad "wp_x nan\n");
  Alcotest.(check bool) "not a number" false (bad "wp_x notanumber\n");
  Alcotest.(check bool) "unclosed label" false (bad "wp_x{a=\"b 1\n");
  Alcotest.(check bool) "good page" true
    (bad "# HELP wp_x help\n# TYPE wp_x gauge\nwp_x{a=\"b\"} 1.5\n")

let test_registry_json () =
  let reg = Registry.create () in
  Registry.incr (Registry.counter reg "wp_j_total");
  match
    Wp_json.Json.member "metrics" (Registry.to_json (Registry.snapshot reg))
  with
  | Some (Wp_json.Json.List [ entry ]) ->
      (match Wp_json.Json.member "name" entry with
      | Some (Wp_json.Json.String n) ->
          Alcotest.(check string) "name" "wp_j_total" n
      | _ -> Alcotest.fail "entry lacks name")
  | _ -> Alcotest.fail "expected a one-entry metrics list"

(* --- spans and profile --- *)

let test_disabled_is_inert () =
  let obs = Obs.disabled in
  Alcotest.(check bool) "disabled" false (Obs.enabled obs);
  Alcotest.(check bool) "no root span" true (Obs.root obs "query" = None);
  Obs.visit obs ~server:0 ~comparisons:3 ~ns:5L;
  Alcotest.(check int) "no profile" 0 (List.length (Obs.per_server obs));
  Alcotest.(check int) "no spans" 0 (List.length (Obs.spans obs))

let test_span_tree_shape () =
  let obs = Obs.create () in
  let plan = Run.compile idx (parse Fixtures.q2) in
  let r = Engine.run ~config:Engine.Config.(default |> with_obs obs) plan ~k:5 in
  Alcotest.(check bool) "answers" true (r.answers <> []);
  let spans = Obs.spans obs in
  let roots = List.filter (fun s -> s.Obs.parent = None) spans in
  (match roots with
  | [ root ] ->
      Alcotest.(check string) "root is the query span" "query" root.Obs.name;
      Alcotest.(check bool) "root closed" true
        (Int64.compare root.Obs.end_ns root.Obs.start_ns >= 0);
      Alcotest.(check bool) "k attribute" true
        (List.assoc_opt "k" root.Obs.attrs = Some 5.0)
  | _ -> Alcotest.fail "expected exactly one root span");
  let names = List.map (fun s -> s.Obs.name) spans in
  Alcotest.(check bool) "has batch spans" true (List.mem "batch" names);
  Alcotest.(check bool) "has visit spans" true (List.mem "visit" names);
  (* Visits sit under batches, batches under the root. *)
  let by_sid =
    List.fold_left (fun m s -> (s.Obs.sid, s) :: m) [] spans
  in
  List.iter
    (fun s ->
      match (s.Obs.name, s.Obs.parent) with
      | "visit", Some p ->
          Alcotest.(check string) "visit parent" "batch"
            (List.assoc p by_sid).Obs.name
      | "visit", None -> Alcotest.fail "visit span without parent"
      | "batch", Some p ->
          Alcotest.(check string) "batch parent" "query"
            (List.assoc p by_sid).Obs.name
      | _ -> ())
    spans

let test_profile_matches_stats () =
  let obs = Obs.create () in
  let plan = Run.compile idx (parse Fixtures.q3) in
  let r = Engine.run ~config:Engine.Config.(default |> with_obs obs) plan ~k:5 in
  let profile = Obs.per_server obs in
  Alcotest.(check bool) "profile nonempty" true (profile <> []);
  let sum f = List.fold_left (fun a (_, c) -> a + f c) 0 profile in
  (* The initial root-candidate scan is one server op but not a routed
     visit, hence the off-by-one. *)
  Alcotest.(check int) "visits = server ops - initial scan"
    (r.stats.server_ops - 1)
    (sum (fun c -> c.Obs.visits));
  (* The root scan also compares (outside any visit), so attribution
     covers a strict, non-empty subset of the total. *)
  let attributed = sum (fun c -> c.Obs.comparisons) in
  Alcotest.(check bool) "comparisons attributed" true
    (attributed > 0 && attributed <= r.stats.comparisons);
  List.iter
    (fun (server, _) ->
      Alcotest.(check bool) "server id in plan" true
        (server >= 0 && server < plan.Plan.n_servers))
    profile

let test_sampling_deterministic () =
  let pattern ~sample ~seed n =
    let obs = Obs.create ~sample ~seed () in
    List.init n (fun i ->
        let sp = Obs.root obs (Printf.sprintf "q%d" i) in
        Obs.finish obs sp;
        sp <> None)
  in
  let a = pattern ~sample:0.5 ~seed:11 64 in
  let b = pattern ~sample:0.5 ~seed:11 64 in
  Alcotest.(check (list bool)) "same seed, same decisions" a b;
  Alcotest.(check bool) "sampling actually drops some" true
    (List.mem false a && List.mem true a);
  let none = pattern ~sample:0.0 ~seed:3 16 in
  Alcotest.(check bool) "sample 0 collects nothing" true
    (List.for_all not none)

let test_unsampled_still_profiles () =
  let obs = Obs.create ~sample:0.0 () in
  let plan = Run.compile idx (parse Fixtures.q1) in
  let r = Engine.run ~config:Engine.Config.(default |> with_obs obs) plan ~k:3 in
  Alcotest.(check int) "no spans collected" 0 (List.length (Obs.spans obs));
  let visits =
    List.fold_left (fun a (_, c) -> a + c.Obs.visits) 0 (Obs.per_server obs)
  in
  Alcotest.(check int) "profile is exact regardless"
    (r.stats.server_ops - 1)
    visits

let test_max_spans_cap () =
  let obs = Obs.create ~max_spans:3 () in
  let sps =
    List.init 8 (fun i -> Obs.root obs (Printf.sprintf "s%d" i))
  in
  List.iter (Obs.finish obs) sps;
  Alcotest.(check int) "capped" 3 (List.length (Obs.spans obs));
  Alcotest.(check int) "drops counted" 5 (Obs.dropped_spans obs)

let test_span_events_carry_trace () =
  let obs = Obs.create () in
  let plan = Run.compile idx (parse Fixtures.q1) in
  ignore (Engine.run ~config:Engine.Config.(default |> with_obs obs) plan ~k:3);
  let events =
    List.concat_map (fun s -> s.Obs.events) (Obs.spans obs)
  in
  Alcotest.(check bool) "engine events attached to spans" true
    (List.exists
       (fun (e : Obs.stamped) ->
         match e.event with Obs.Routed _ -> true | _ -> false)
       events);
  Alcotest.(check bool) "span tree renders them" true
    (Test_stats.contains ~needle:{|"msg":"route #|}
       (Wp_json.Json.to_string (Obs.span_tree_json obs)))

(* --- no interference with the engines --- *)

let stats_counters (s : Stats.t) =
  ( s.server_ops, s.comparisons, s.matches_created, s.matches_pruned,
    s.matches_died, s.routing_decisions, s.completed )

let test_obs_does_not_change_runs () =
  List.iter
    (fun q ->
      let plan = Run.compile idx (parse q) in
      let plain = Engine.run plan ~k:5 in
      let observed =
        Engine.run
          ~config:Engine.Config.(default |> with_obs (Obs.create ()))
          plan ~k:5
      in
      Alcotest.(check bool) (q ^ ": same answers") true
        (Fixtures.sorted_scores plain.answers
        = Fixtures.sorted_scores observed.answers);
      Alcotest.(check bool) (q ^ ": same counters") true
        (stats_counters plain.stats = stats_counters observed.stats))
    [ Fixtures.q1; Fixtures.q2; Fixtures.q3 ]

let test_config_default_is_old_default () =
  (* Spelling out every historical default through the setter chain
     must stay bit-identical to Config.default — answers, counters and
     the engine event stream.  (This test compared against the
     deprecated [run_args] wrappers until they were removed.) *)
  let events obs =
    List.map (fun (e : Obs.stamped) -> (e.seq, e.event)) (Obs.events obs)
  in
  List.iter
    (fun q ->
      let plan = Run.compile idx (parse q) in
      let obs_a = Obs.create ~max_spans:1_000_000 () in
      let a =
        Engine.run ~config:Engine.Config.(default |> with_obs obs_a)
          plan ~k:4
      in
      let obs_b = Obs.create ~max_spans:1_000_000 () in
      let config_b =
        Engine.Config.(
          default
          |> with_routing Strategy.Min_alive
          |> with_queue_policy Strategy.Max_final_score
          |> with_batch 1
          |> with_should_stop Engine.never_stop
          |> with_on_certified Engine.no_certify
          |> with_obs obs_b)
      in
      let b = Engine.run ~config:config_b plan ~k:4 in
      Alcotest.(check bool) (q ^ ": same answers") true
        (Fixtures.sorted_scores a.answers = Fixtures.sorted_scores b.answers);
      Alcotest.(check bool) (q ^ ": same counters") true
        (stats_counters a.stats = stats_counters b.stats);
      Alcotest.(check bool) (q ^ ": events recorded") true
        (events obs_a <> []);
      Alcotest.(check bool) (q ^ ": same events") true
        (events obs_a = events obs_b))
    [ Fixtures.q1; Fixtures.q2; Fixtures.q3 ]

let test_mt_events_ordered () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let obs = Obs.create () in
  ignore
    (Engine_mt.run
       ~config:Engine.Config.(default |> with_obs obs)
       plan ~k:5);
  let events = Obs.events obs in
  Alcotest.(check bool) "events collected" true (events <> []);
  let rec sorted = function
    | (a : Obs.stamped) :: (b :: _ as rest) ->
        a.seq < b.seq && Int64.compare a.ts_ns b.ts_ns <= 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone (ts, seq) order" true (sorted events)

let suite =
  [
    Alcotest.test_case "counter and gauge" `Quick test_counter_and_gauge;
    Alcotest.test_case "dedup and kind clash" `Quick test_dedup_and_kind_clash;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "pull metrics" `Quick test_pull_metrics;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
    Alcotest.test_case "validate rejects malformed" `Quick
      test_validate_exposition_rejects;
    Alcotest.test_case "registry json" `Quick test_registry_json;
    Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
    Alcotest.test_case "span tree shape" `Quick test_span_tree_shape;
    Alcotest.test_case "profile matches stats" `Quick test_profile_matches_stats;
    Alcotest.test_case "sampling deterministic" `Quick
      test_sampling_deterministic;
    Alcotest.test_case "unsampled still profiles" `Quick
      test_unsampled_still_profiles;
    Alcotest.test_case "max spans cap" `Quick test_max_spans_cap;
    Alcotest.test_case "span events carry trace" `Quick
      test_span_events_carry_trace;
    Alcotest.test_case "obs does not change runs" `Quick
      test_obs_does_not_change_runs;
    Alcotest.test_case "config default = old default" `Quick
      test_config_default_is_old_default;
    Alcotest.test_case "mt events (ts, seq) ordered" `Quick
      test_mt_events_ordered;
  ]
