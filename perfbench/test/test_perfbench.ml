(* The benchmark's own tests: seeded inputs, repeatable engine counters,
   the statistics helpers and the span arithmetic. *)

open Perfbench
module Protocol = Wp_serve.Protocol
module Json = Wp_json.Json

let queries w ~seed = Array.map Seeded.request_key (Seeded.stream w ~seed)

(* --- seeded inputs --- *)

let test_same_seed_same_inputs () =
  let w = Seeded.Warm_repeat in
  Alcotest.(check string)
    "corpus digest"
    (Seeded.corpus_digest (Seeded.corpus w ~seed:7))
    (Seeded.corpus_digest (Seeded.corpus w ~seed:7));
  List.iter
    (fun w ->
      Alcotest.(check (array string))
        (Seeded.workload_to_string w ^ " requests")
        (queries w ~seed:7) (queries w ~seed:7))
    Seeded.workloads

let test_other_seed_other_inputs () =
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Seeded.workload_to_string w ^ " requests differ")
        true
        (queries w ~seed:7 <> queries w ~seed:8))
    Seeded.workloads;
  Alcotest.(check bool)
    "corpus differs" true
    (Seeded.corpus_digest (Seeded.corpus Seeded.Warm_repeat ~seed:7)
    <> Seeded.corpus_digest (Seeded.corpus Seeded.Warm_repeat ~seed:8))

let test_adhoc_stream_shape () =
  let s = Seeded.stream Seeded.Adhoc_cold ~seed:3 in
  let texts = Array.map (fun (r : Seeded.request) -> r.query) s in
  let distinct = Hashtbl.create 64 in
  Array.iter (fun q -> Hashtbl.replace distinct q ()) texts;
  Alcotest.(check int) "query texts pairwise distinct" (Array.length s)
    (Hashtbl.length distinct);
  Array.iteri
    (fun i (r : Seeded.request) ->
      Alcotest.(check bool) "every fourth is twig" (i mod 4 = 3) (r.algo = Some "twig");
      Alcotest.(check bool) "k drawn from {10,15,75}" true (List.mem r.k Seeded.adhoc_ks))
    s

(* A corpus on disk and a fresh in-process service over it. *)
let with_corpus w ~seed f =
  let dir = Filename.temp_dir "perfbench" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let docs = Seeded.corpus w ~seed in
      Seeded.write_corpus ~format:(Seeded.shape w).format ~dir docs;
      f dir docs)

let service dir =
  let catalog = Wp_serve.Catalog.create () in
  (match Wp_serve.Catalog.load_dir catalog dir with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Wp_serve.Service.create ~catalog ()

let counters = [ "server_ops"; "comparisons"; "matches_created"; "matches_pruned"; "cache_hits"; "cache_misses" ]

let summed_counters dir requests =
  let svc = service dir in
  let sums = Array.make (List.length counters) 0 in
  Array.iteri
    (fun id r ->
      let resp = Wp_serve.Service.handle_query svc (Seeded.to_query ~id r) in
      Alcotest.(check string) "reply ok" "ok" (Protocol.status_to_string resp.status);
      let stats = Option.get resp.stats in
      List.iteri
        (fun i key ->
          match Json.member key stats with
          | Some (Json.Int n) -> sums.(i) <- sums.(i) + n
          | _ -> Alcotest.fail ("stats without " ^ key))
        counters)
    requests;
  Array.to_list sums

(* The prefix also pins that the seeded ad-hoc patterns compile, pass
   the analyzer and match the oracle: no operation of the workload
   fails. *)
let test_counters_repeat () =
  with_corpus Seeded.Adhoc_cold ~seed:5 (fun dir docs ->
      let prefix = Array.sub (Seeded.stream Seeded.Adhoc_cold ~seed:5) 0 24 in
      let first = summed_counters dir prefix in
      Alcotest.(check (list int)) "engine counters repeat exactly" first
        (summed_counters dir prefix);
      let oracle =
        Oracle.create
          (List.map
             (fun (d : Seeded.doc) ->
               (d.name, Wp_xml.Index.build (Wp_xml.Doc.of_tree d.tree)))
             docs)
      in
      let svc = service dir in
      Array.iteri
        (fun id r ->
          let resp = Wp_serve.Service.handle_query svc (Seeded.to_query ~id r) in
          match Oracle.check oracle r resp.answers with
          | None -> ()
          | Some why -> Alcotest.fail why)
        prefix)

(* --- statistics --- *)

let test_percentiles () =
  let xs = List.init 10 (fun i -> float_of_int (10 - i)) in
  let p q = Stat.percentile xs q in
  Alcotest.(check (float 0.)) "p50" 5.0 (p 0.5);
  Alcotest.(check (float 0.)) "p90" 9.0 (p 0.9);
  Alcotest.(check (float 0.)) "p99" 10.0 (p 0.99);
  Alcotest.(check (float 0.)) "p0" 1.0 (p 0.0);
  Alcotest.(check (float 0.)) "empty" 0.0 (Stat.percentile [] 0.5)

let test_supported_tail () =
  let t n = Stat.supported_tail n in
  let q = Alcotest.(option (float 0.)) in
  Alcotest.check q "1000 samples support p99" (Some 0.99) (t 1000);
  Alcotest.check q "999 samples do not" (Some 0.95) (t 999);
  Alcotest.check q "10000 support p99.9" (Some 0.999) (t 10000);
  Alcotest.check q "200 support p95" (Some 0.95) (t 200);
  Alcotest.check q "20 support the median" (Some 0.5) (t 20);
  Alcotest.check q "19 support nothing" None (t 19);
  Alcotest.check q "empty" None (t 0)

let test_error_rate_counts_every_attempt () =
  let t = Stat.tally () in
  List.iter (Stat.record t)
    Stat.[ Ok_reply; Transport; Ok_reply; Wrong_answer; Overloaded; Ok_reply; Partial; Error_reply ];
  Alcotest.(check int) "attempted" 8 t.attempted;
  Alcotest.(check int) "failed" 5 t.failed;
  Alcotest.(check (float 1e-12)) "rate" 0.625 (Stat.error_rate t);
  Alcotest.(check (float 0.)) "empty" 0.0 (Stat.error_rate (Stat.tally ()))

let test_empty_window_is_finite () =
  let zero = { Served.plan_hits = 0; plan_misses = 0; plan_evictions = 0; shed = 0 } in
  let metrics =
    Report.end_to_end ~setup_s:0.0 ~window_s:0.0 ~cpu_ms:0.0 ~rss_mb:0.0
      ~tally:(Stat.tally ()) []
    @ Report.served_layers [||] [] zero
  in
  List.iter
    (fun (x : Report.metric) ->
      Alcotest.(check bool) (x.name ^ " finite") true (Float.is_finite x.value))
    metrics;
  let line = Report.result_json ~correct:false ~attempted:0 ~failed:0 metrics in
  Alcotest.(check bool) "result parses" true (Result.is_ok (Json.of_string line));
  Alcotest.(check bool) "no null values" false
    (let rec has_null = function
       | Json.Null -> true
       | Json.List l -> List.exists has_null l
       | Json.Obj l -> List.exists (fun (_, v) -> has_null v) l
       | _ -> false
     in
     has_null (Result.get_ok (Json.of_string line)))

(* --- spans --- *)

let test_self_times () =
  let t = Tracer.create () in
  Tracer.add t ~req:0 "handle" ~start_ns:0L ~end_ns:10L;
  Tracer.add t ~req:0 ~parent:0 "a" ~start_ns:2L ~end_ns:4L;
  Tracer.add t ~req:0 ~parent:0 "b" ~start_ns:5L ~end_ns:8L;
  Tracer.add t ~req:0 ~parent:2 "c" ~start_ns:6L ~end_ns:7L;
  let self =
    List.map
      (fun ((s : Tracer.span), ns) -> (s.name, Int64.to_int ns))
      (Tracer.self_times (Tracer.spans t))
  in
  Alcotest.(check (list (pair string int)))
    "self = duration - children"
    [ ("handle", 5); ("a", 2); ("b", 2); ("c", 1) ]
    self;
  let outer =
    Tracer.span (Some t) ~req:1 "outer" (fun parent ->
        Tracer.span (Some t) ~req:1 ?parent "inner" (fun _ -> ());
        parent)
  in
  let inner = List.find (fun (s : Tracer.span) -> s.name = "inner") (Tracer.spans t) in
  Alcotest.(check (option int)) "inner parented to outer" outer inner.parent;
  Alcotest.(check bool) "inner nested in outer's interval" true
    (List.exists
       (fun (s : Tracer.span) ->
         Some s.sid = outer && s.start_ns <= inner.start_ns && inner.end_ns <= s.end_ns)
       (Tracer.spans t))

let () =
  Alcotest.run "perfbench"
    [
      ( "seeded",
        [
          Alcotest.test_case "same seed, same inputs" `Quick test_same_seed_same_inputs;
          Alcotest.test_case "other seed, other inputs" `Quick test_other_seed_other_inputs;
          Alcotest.test_case "adhoc stream shape" `Quick test_adhoc_stream_shape;
          Alcotest.test_case "counters repeat over a prefix" `Quick test_counters_repeat;
        ] );
      ( "stat",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
          Alcotest.test_case "supported tail" `Quick test_supported_tail;
          Alcotest.test_case "error rate counts every attempt" `Quick
            test_error_rate_counts_every_attempt;
          Alcotest.test_case "empty window is finite" `Quick test_empty_window_is_finite;
        ] );
      ("tracer", [ Alcotest.test_case "self times" `Quick test_self_times ]);
    ]
