(* The serving layer: LRU, protocol round-trips, catalog, metrics,
   deadline semantics, admission control and the socket transport. *)

open Wp_serve
module Json = Wp_json.Json

(* --- Lru --- *)

let test_lru_basics () =
  let c = Lru.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Lru.capacity c);
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  (* "a" was just refreshed, so "b" is now least-recent. *)
  Lru.add c "c" 3;
  Alcotest.(check bool) "b evicted" false (Lru.mem c "b");
  Alcotest.(check bool) "a kept" true (Lru.mem c "a");
  Alcotest.(check bool) "c kept" true (Lru.mem c "c");
  Alcotest.(check int) "length" 2 (Lru.length c);
  Alcotest.(check int) "one eviction" 1 (Lru.evictions c);
  Alcotest.(check (list string)) "mru order" [ "c"; "a" ] (Lru.keys c)

let test_lru_find_or_add () =
  let c = Lru.create ~capacity:4 in
  let computed = ref 0 in
  let compute _ = incr computed; !computed in
  Alcotest.(check int) "computes" 1 (Lru.find_or_add c "k" ~compute);
  Alcotest.(check int) "cached" 1 (Lru.find_or_add c "k" ~compute);
  Alcotest.(check int) "computed once" 1 !computed;
  (match Lru.find_or_add c "boom" ~compute:(fun _ -> failwith "no") with
  | _ -> Alcotest.fail "compute exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "failed compute not inserted" false (Lru.mem c "boom")

let test_lru_hit_rate () =
  let c = Lru.create ~capacity:2 in
  Alcotest.(check (float 0.0)) "no lookups" 0.0 (Lru.hit_rate c);
  Alcotest.(check bool) "finite" true (Float.is_finite (Lru.hit_rate c));
  Lru.add c 1 "x";
  ignore (Lru.find c 1);
  ignore (Lru.find c 2);
  Alcotest.(check (float 1e-9)) "1/2" 0.5 (Lru.hit_rate c);
  (match Lru.create ~capacity:0 with
  | _ -> Alcotest.fail "capacity 0 accepted"
  | exception Invalid_argument _ -> ())

let test_lru_filter () =
  let c = Lru.create ~capacity:4 in
  List.iter (fun k -> Lru.add c k (k * 10)) [ 1; 2; 3; 4 ];
  Lru.filter c (fun k _ -> k mod 2 = 0);
  Alcotest.(check (list int)) "odd keys dropped, order kept" [ 4; 2 ] (Lru.keys c);
  Alcotest.(check int) "no eviction counted" 0 (Lru.evictions c);
  Lru.add c 5 50;
  Lru.add c 6 60;
  Lru.add c 7 70;
  Alcotest.(check (list int)) "recency list still sound" [ 7; 6; 5; 4 ] (Lru.keys c)

(* --- Protocol --- *)

let roundtrip_request req =
  match Protocol.parse_request (Json.to_string (Protocol.request_to_json req)) with
  | Ok req' -> Alcotest.(check bool) "request round-trip" true (req = req')
  | Error m -> Alcotest.failf "request does not reparse: %s" m

let test_protocol_request_roundtrip () =
  roundtrip_request
    (Protocol.Query
       {
         id = 7;
         query = "//item[./name]";
         doc = Some "a.xml";
         k = Some 5;
         deadline_ms = Some 12.5;
         algo = Some "whirlpool-m";
         routing = Some "max_score";
         batch = Some 4;
         use_cache = Some false;
         bound_push = Some false;
       });
  roundtrip_request
    (Protocol.Query
       {
         id = 1;
         query = "/book";
         doc = None;
         k = None;
         deadline_ms = None;
         algo = None;
         routing = None;
         batch = None;
         use_cache = None;
         bound_push = None;
       });
  roundtrip_request
    (Protocol.Query
       {
         id = 8;
         query = "/book[./title]";
         doc = None;
         k = Some 3;
         deadline_ms = None;
         algo = Some "twig";
         routing = None;
         batch = None;
         use_cache = None;
         bound_push = None;
       });
  roundtrip_request (Protocol.Metrics { id = 2; format = Protocol.Json_format });
  roundtrip_request (Protocol.Metrics { id = 2; format = Protocol.Prometheus });
  roundtrip_request (Protocol.Ping { id = 3 });
  roundtrip_request (Protocol.Stop { id = 4 })

let roundtrip_response r =
  match
    Protocol.parse_response (Json.to_string (Protocol.response_to_json r))
  with
  | Ok r' -> Alcotest.(check bool) "response round-trip" true (r = r')
  | Error m -> Alcotest.failf "response does not reparse: %s" m

let test_protocol_response_roundtrip () =
  roundtrip_response
    (Protocol.ok_response
       ~answers:
         [
           {
             Protocol.doc = "a.xml";
             root = 17;
             dewey = "0.3.1";
             score = 0.91;
             progress = 2;
           };
         ]
       ~partial:true ~id:7 ~elapsed_ms:3.5 ());
  roundtrip_response
    (Protocol.error_response ~id:9 ~code:Protocol.Internal "bad things");
  roundtrip_response (Protocol.overloaded_response ~id:3)

let test_protocol_rejects () =
  List.iter
    (fun bad ->
      match Protocol.parse_request bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" bad)
    [
      "{}";
      "{\"op\":\"query\",\"id\":1}";  (* no query text *)
      "{\"op\":\"warp\",\"id\":1}";  (* unknown op *)
      "{\"op\":\"hello\",\"id\":1,\"version\":2}";  (* no handshake op *)
      "{\"op\":\"ping\"}";  (* no id *)
      "{\"op\":\"query\",\"id\":\"x\",\"query\":\"/a\"}";  (* id not int *)
      "not json at all";
    ]

let test_error_codes_roundtrip () =
  List.iter
    (fun code ->
      let s = Protocol.error_code_to_string code in
      match Protocol.error_code_of_string s with
      | Some c ->
          Alcotest.(check bool) (s ^ " round-trips") true (c = code)
      | None -> Alcotest.failf "code %s does not reparse" s)
    Protocol.all_error_codes;
  Alcotest.(check bool) "unknown code rejected" true
    (Protocol.error_code_of_string "warp_failure" = None);
  (* Codes ride replies over the wire. *)
  roundtrip_response
    (Protocol.error_response ~id:1 ~code:Protocol.Bad_request "nope");
  (match
     Protocol.parse_response
       (Json.to_string
          (Protocol.response_to_json
             (Protocol.error_response ~id:4 ~code:Protocol.Lint_rejected "no")))
   with
  | Ok r ->
      Alcotest.(check bool) "code survives the wire" true
        (r.code = Some Protocol.Lint_rejected)
  | Error m -> Alcotest.failf "reparse: %s" m);
  (* The shed and partial constructors pin their codes. *)
  Alcotest.(check bool) "overloaded code" true
    ((Protocol.overloaded_response ~id:2).code = Some Protocol.Code_overloaded);
  Alcotest.(check bool) "partial code" true
    ((Protocol.ok_response ~partial:true ~id:3 ~elapsed_ms:1.0 ()).code
    = Some Protocol.Deadline_expired);
  List.iter
    (fun f ->
      Alcotest.(check bool) "metrics format round-trips" true
        (Protocol.metrics_format_of_string (Protocol.metrics_format_to_string f)
        = Some f))
    [ Protocol.Json_format; Protocol.Prometheus ]

(* --- corpus fixture on disk --- *)

let write_tree path tree =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Wp_xml.Printer.to_channel oc tree)

let with_corpus_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wp-serve-test-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  Unix.mkdir dir 0o700;
  let a = Wp_xml.Tree.el "bib" [ Fixtures.book_a; Fixtures.book_b ] in
  let b = Wp_xml.Tree.el "bib" [ Fixtures.book_c ] in
  write_tree (Filename.concat dir "a.xml") a;
  write_tree (Filename.concat dir "b.xml") b;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let loaded_catalog dir =
  let catalog = Catalog.create () in
  (match Catalog.load_dir catalog dir with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "load_dir: %s" m);
  catalog

(* --- Catalog --- *)

let test_catalog_load_dir () =
  with_corpus_dir (fun dir ->
      let catalog = loaded_catalog dir in
      let names =
        List.map (fun (d : Catalog.doc) -> d.name) (Catalog.docs catalog)
      in
      Alcotest.(check (list string)) "name order" [ "a.xml"; "b.xml" ] names;
      Alcotest.(check bool) "find" true (Catalog.find catalog "a.xml" <> None);
      Alcotest.(check bool) "find missing" true
        (Catalog.find catalog "zzz.xml" = None);
      List.iter
        (fun (d : Catalog.doc) ->
          Alcotest.(check bool) (d.name ^ " nonempty") true (d.nodes > 0))
        (Catalog.docs catalog))

let test_catalog_load_errors () =
  let catalog = Catalog.create () in
  (match Catalog.load_dir catalog "/nonexistent-dir-xyzzy" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded a nonexistent directory");
  with_corpus_dir (fun dir ->
      (* A directory with no corpus files is an error, not an empty Ok. *)
      let empty = Filename.concat dir "empty" in
      Unix.mkdir empty 0o700;
      (match Catalog.load_dir catalog empty with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "loaded an empty directory");
      Unix.rmdir empty)

let test_catalog_plan_cache () =
  with_corpus_dir (fun dir ->
      let catalog = loaded_catalog dir in
      let doc = Option.get (Catalog.find catalog "a.xml") in
      let q = "/book[./title]" in
      (match Catalog.plan_for catalog doc q with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "plan_for: %s" (Catalog.plan_error_message e));
      (match Catalog.plan_for catalog doc q with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "plan_for (warm): %s" (Catalog.plan_error_message e));
      let s = Catalog.plan_cache_stats catalog in
      Alcotest.(check int) "one miss" 1 s.misses;
      Alcotest.(check int) "one hit" 1 s.hits;
      Alcotest.(check int) "one plan cached" 1 s.size;
      (* An unparsable query is an error and occupies no cache slot. *)
      (match Catalog.plan_for catalog doc "][broken" with
      | Error (Catalog.Bad_query _) -> ()
      | Error (Catalog.Rejected m) -> Alcotest.failf "rejected, not bad: %s" m
      | Ok _ -> Alcotest.fail "compiled garbage");
      Alcotest.(check int) "still one plan"
        1 (Catalog.plan_cache_stats catalog).size)

(* --- Metrics --- *)

let test_percentile () =
  let samples = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50" 50.0 (Metrics.percentile samples 0.50);
  Alcotest.(check (float 0.0)) "p95" 95.0 (Metrics.percentile samples 0.95);
  Alcotest.(check (float 0.0)) "p99" 99.0 (Metrics.percentile samples 0.99);
  Alcotest.(check (float 0.0)) "p100" 100.0 (Metrics.percentile samples 1.0);
  Alcotest.(check (float 0.0)) "singleton" 7.0 (Metrics.percentile [ 7.0 ] 0.99);
  Alcotest.(check (float 0.0)) "empty" 0.0 (Metrics.percentile [] 0.5)

let member_exn name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "snapshot lacks %S" name

let test_metrics_zero_requests_finite () =
  (* A snapshot before any request must be all finite numbers — the
     qps and percentile divisions have zero denominators here. *)
  let m = Metrics.create () in
  let snap = Metrics.snapshot m ~extra:[] in
  let s = Json.to_string snap in
  Alcotest.(check bool) "no nan" false (Test_stats.contains ~needle:"nan" s);
  (match Json.of_string s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "snapshot does not reparse: %s" e);
  Alcotest.(check bool) "zero requests" true
    (member_exn "requests" snap = Json.Int 0);
  let lat = member_exn "latency_ms" snap in
  Alcotest.(check bool) "zero samples" true
    (member_exn "samples" lat = Json.Int 0);
  Alcotest.(check bool) "p50 = 0" true (member_exn "p50" lat = Json.Float 0.0)

let test_metrics_counts () =
  let m = Metrics.create () in
  Metrics.record m ~status:`Ok ~latency_ms:1.0;
  Metrics.record m ~status:`Partial ~latency_ms:2.0;
  Metrics.record m ~status:`Error ~latency_ms:3.0;
  Metrics.record_shed m;
  let snap = Metrics.snapshot m ~extra:[ ("tag", Json.Bool true) ] in
  Alcotest.(check bool) "requests" true
    (member_exn "requests" snap = Json.Int 3);
  Alcotest.(check bool) "ok" true (member_exn "ok" snap = Json.Int 1);
  Alcotest.(check bool) "partial" true (member_exn "partial" snap = Json.Int 1);
  Alcotest.(check bool) "errors" true (member_exn "errors" snap = Json.Int 1);
  Alcotest.(check bool) "shed" true (member_exn "shed" snap = Json.Int 1);
  Alcotest.(check bool) "extra passthrough" true
    (member_exn "tag" snap = Json.Bool true)

(* --- engine deadline hook --- *)

let books_plan q =
  Whirlpool.Run.compile Fixtures.books_index (Fixtures.parse q)

let test_engine_should_stop () =
  let plan = books_plan Fixtures.q2a in
  let baseline = Whirlpool.Engine.run plan ~k:3 in
  Alcotest.(check bool) "baseline complete" false baseline.partial;
  (* A hook that never fires leaves the run identical. *)
  let unfired =
    Whirlpool.Engine.run
      ~config:
        Whirlpool.Engine.Config.(
          default |> with_should_stop Whirlpool.Engine.never_stop)
      plan ~k:3
  in
  Alcotest.(check bool) "never_stop identical" true
    (List.map
       (fun (e : Whirlpool.Topk_set.entry) -> (e.root, e.score))
       baseline.answers
    = List.map
        (fun (e : Whirlpool.Topk_set.entry) -> (e.root, e.score))
        unfired.answers);
  (* A hook that fires immediately stops the run at the first
     iteration boundary, flagged partial, with no answers hung. *)
  let stopped =
    Whirlpool.Engine.run
      ~config:
        Whirlpool.Engine.Config.(default |> with_should_stop (fun () -> true))
      plan ~k:3
  in
  Alcotest.(check bool) "flagged partial" true stopped.partial;
  Alcotest.(check bool) "no more answers than baseline" true
    (List.length stopped.answers <= List.length baseline.answers)

(* Every backend honours the hook through the one dispatcher: one that
   always fires flags the run partial, [never_stop] lets it complete. *)
let test_backend_should_stop () =
  let plan = books_plan Fixtures.q2a in
  List.iter
    (fun algo ->
      let name = Whirlpool.Engine.Config.algo_to_string algo in
      let run should_stop =
        Wp_twig.Backend.run
          ~config:
            Whirlpool.Engine.Config.(
              default |> with_algo algo |> with_should_stop should_stop)
          plan ~k:3
      in
      Alcotest.(check bool) (name ^ " flagged partial") true
        (run (fun () -> true)).partial;
      Alcotest.(check bool) (name ^ " complete") false
        (run Whirlpool.Engine.never_stop).partial)
    Whirlpool.Engine.Config.all_algos

(* --- Service --- *)

let query id ?doc ?k ?deadline_ms ?algo q =
  {
    Protocol.id;
    query = q;
    doc;
    k;
    deadline_ms;
    algo;
    routing = None;
    batch = None;
    use_cache = None;
    bound_push = None;
  }

(* Run [f 0] on this domain and [f 1] on a second one, released
   together by a spin barrier so both reach the catalog at once. *)
let on_two_domains f =
  match Fixtures.on_domains 2 f with
  | [ mine; other ] -> (mine, other)
  | _ -> assert false

let with_xmark_dir f =
  with_corpus_dir (fun dir ->
      write_tree (Filename.concat dir "x.xml")
        (Wp_xml.Doc.to_tree (Lazy.force Fixtures.xmark_doc) 0);
      f dir)

(* The first twig query on a document builds its dataguide.  Two of
   them arriving together on a freshly loaded document must both be
   answered. *)
let test_concurrent_first_twig () =
  with_xmark_dir (fun dir ->
      for trial = 1 to 20 do
        let service = Service.create ~catalog:(loaded_catalog dir) () in
        let r0, r1 =
          on_two_domains (fun i ->
              Service.handle_query service
                (query i ~doc:"x.xml" ~k:3 ~algo:"twig" Fixtures.q1))
        in
        List.iter
          (fun (r : Protocol.response) ->
            if r.status <> Protocol.Ok then
              Alcotest.failf "trial %d: request %d failed: %s" trial r.id
                (Option.value r.error ~default:"(no message)"))
          [ r0; r1 ]
      done)

(* Concurrent misses compile outside the catalog lock.  Identical
   queries must still end up sharing one cached plan, distinct ones
   get their own, and every call counts exactly one lookup.  The
   document is a chain of nested <a> nodes whose only matching <b> is
   the deepest, so each idf sweep rescans the shared subtrees and a
   compile takes tens of milliseconds: long enough that the two
   domains' lookups fall inside each other's compile even when they
   share one core.  Each query asks for its own value, so no compile
   finds its sweep in the document's component table. *)
let test_concurrent_plan_for () =
  let rec chain d n =
    let b = Wp_xml.Tree.leaf "b" (if d = n then "x" else "y") in
    Wp_xml.Tree.el "a" (if d = n then [ b ] else [ b; chain (d + 1) n ])
  in
  with_corpus_dir (fun dir ->
      write_tree (Filename.concat dir "chain.xml") (chain 1 1000);
      let catalog = loaded_catalog dir in
      let doc = Option.get (Catalog.find catalog "chain.xml") in
      let plan q =
        match Catalog.plan_for catalog doc q with
        | Ok p -> p.Catalog.plan
        | Error e ->
            Alcotest.failf "plan_for %s: %s" q (Catalog.plan_error_message e)
      in
      (* Distinct texts (the cache key) of equally slow queries. *)
      let queries =
        List.init 4 (fun i -> Printf.sprintf "//a[./b = '%s']" (String.make (i + 1) 'x'))
      in
      List.iter
        (fun q ->
          let a, b = on_two_domains (fun _ -> plan q) in
          Alcotest.(check bool) (q ^ ": one shared plan") true (a == b);
          Alcotest.(check bool) (q ^ ": cached entry") true (plan q == a))
        queries;
      let a, b =
        on_two_domains (fun i ->
            plan (if i = 0 then "//a[.//b = 'x']" else "//a[./b = 'y']"))
      in
      Alcotest.(check bool) "distinct plans" true (a != b);
      let s = Catalog.plan_cache_stats catalog in
      let n = List.length queries in
      Alcotest.(check int) "one lookup per call" ((3 * n) + 2) (s.hits + s.misses);
      Alcotest.(check int) "cached plans" (n + 2) s.size;
      Alcotest.(check bool) "a miss per plan" true (s.misses >= n + 2))

let plan_exn catalog doc q =
  match Catalog.plan_for catalog doc q with
  | Ok p -> p.Catalog.plan
  | Error e -> Alcotest.failf "plan_for %s: %s" q (Catalog.plan_error_message e)

(* Reloading a name must not serve the plans compiled for the file it
   replaced. *)
let test_catalog_reload_drops_plans () =
  with_corpus_dir (fun dir ->
      let path = Filename.concat dir "d.xml" in
      write_tree path (Wp_xml.Tree.el "r" [ Wp_xml.Tree.el "a" [ Wp_xml.Tree.leaf "b" "x" ] ]);
      let catalog = Catalog.create () in
      let load () =
        match Catalog.load_file catalog path with
        | Ok d -> d
        | Error m -> Alcotest.failf "load_file: %s" m
      in
      let old_doc = load () in
      let q = "//a[./b]" in
      let old_plan = plan_exn catalog old_doc q in
      write_tree path
        (Wp_xml.Tree.el "r"
           (List.init 3 (fun _ -> Wp_xml.Tree.el "a" [ Wp_xml.Tree.leaf "b" "y" ])));
      let doc = load () in
      Alcotest.(check int) "stale plans dropped" 0
        (Catalog.plan_cache_stats catalog).size;
      Alcotest.(check bool) "fresh memo" true (doc.memo != old_doc.memo);
      let plan = plan_exn catalog doc q in
      Alcotest.(check bool) "new plan" true (plan != old_plan);
      Alcotest.(check bool) "compiled against the new index" true
        (plan.index == doc.index);
      Alcotest.(check int) "new roots" 3 (Array.length plan.roots);
      (* A caller still holding the replaced document gets a plan for
         its own index, and that plan does not displace the new one. *)
      let stale = plan_exn catalog old_doc q in
      Alcotest.(check bool) "stale caller, own index" true
        (stale.index == old_doc.index);
      Alcotest.(check bool) "cache keeps the new plan" true
        (plan_exn catalog doc q == plan))

(* A twig query after a reload answers from the new document: its
   guide's id windows are the new document's, not the replaced one's.
   The old document holds one <a>, the new one three, so a stale guide
   would clip the root stream to the first. *)
let test_twig_after_reload () =
  with_corpus_dir (fun dir ->
      let path = Filename.concat dir "d.xml" in
      let write n =
        write_tree path
          (Wp_xml.Tree.el "r"
             (List.init n (fun _ ->
                  Wp_xml.Tree.el "a" [ Wp_xml.Tree.leaf "b" "x" ])))
      in
      let catalog = Catalog.create () in
      let service = Service.create ~catalog () in
      let roots n =
        write n;
        (match Catalog.load_file catalog path with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "load_file: %s" m);
        let r =
          Service.handle_query service
            (query n ~doc:"d.xml" ~k:10 ~algo:"twig" "//a[./b]")
        in
        Alcotest.(check bool) "ok" true (r.status = Protocol.Ok);
        List.sort compare
          (List.map (fun (a : Protocol.answer) -> a.root) r.answers)
      in
      Alcotest.(check (list int)) "first load" [ 1 ] (roots 1);
      Alcotest.(check (list int)) "after reload" [ 1; 3; 5 ] (roots 3))

(* Domains compiling overlapping ad-hoc patterns against one document
   fill its component table at once.  Every plan must carry the
   statistics a fresh table gives, and the table must hold exactly one
   entry per distinct key. *)
let test_concurrent_memo_fills () =
  with_xmark_dir (fun dir ->
      let queries = Array.of_list Fixtures.adhoc_queries in
      let n = Array.length queries in
      let fresh = Wp_score.Component_table.create () in
      let doc0 = Option.get (Catalog.find (loaded_catalog dir) "x.xml") in
      let reference =
        Array.map
          (fun q ->
            ignore
              (Whirlpool.Plan.compile ~memo:fresh doc0.index
                 Wp_relax.Relaxation.all (Fixtures.parse q));
            Whirlpool.Plan.compile doc0.index Wp_relax.Relaxation.all
              (Fixtures.parse q))
          queries
      in
      let distinct_keys = (Wp_score.Component_table.stats fresh).size in
      List.iter
        (fun domains ->
          let catalog = loaded_catalog dir in
          let doc = Option.get (Catalog.find catalog "x.xml") in
          let plans =
            Fixtures.on_domains domains (fun i ->
                List.init n (fun j ->
                    let q = (i + j) mod n in
                    (q, plan_exn catalog doc queries.(q))))
          in
          List.iter
            (List.iter (fun (q, plan) ->
                 Fixtures.check_same_statistics
                   ~msg:(Printf.sprintf "%d domains, %s" domains queries.(q))
                   reference.(q) plan))
            plans;
          Alcotest.(check int)
            (Printf.sprintf "%d domains: one entry per key" domains)
            distinct_keys
            (Wp_score.Component_table.stats doc.memo).size)
        [ 2; 3; 4 ])

let test_service_matches_engine () =
  (* The acceptance property: a request without a deadline returns
     answers entry-identical to a direct Engine.run on the same
     (document, plan, k). *)
  with_corpus_dir (fun dir ->
      let catalog = loaded_catalog dir in
      let service = Service.create ~catalog () in
      List.iter
        (fun q ->
          List.iter
            (fun (doc : Catalog.doc) ->
              let plan =
                match Catalog.plan_for catalog doc q with
                | Ok p -> p.Catalog.plan
                | Error e ->
                    Alcotest.failf "plan %s: %s" q
                      (Catalog.plan_error_message e)
              in
              let direct = Whirlpool.Engine.run plan ~k:3 in
              let r =
                Service.handle_query service (query 1 ~doc:doc.name ~k:3 q)
              in
              Alcotest.(check bool) (q ^ " status ok") true
                (r.status = Protocol.Ok);
              Alcotest.(check bool)
                (q ^ " on " ^ doc.name ^ " entry-identical")
                true
                (List.map
                   (fun (a : Protocol.answer) -> (a.root, a.score, a.progress))
                   r.answers
                = List.map
                    (fun (e : Whirlpool.Topk_set.entry) ->
                      (e.root, e.score, e.progress))
                    direct.answers))
            (Catalog.docs catalog))
        [ "/book[./title]"; Fixtures.q2d; "/book[./price and ./isbn]" ])

let test_service_expired_deadline_partial () =
  with_corpus_dir (fun dir ->
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      (* An already expired deadline: the reply must come back (no
         hang) flagged partial, never an error. *)
      let r =
        Service.handle_query service (query 1 ~deadline_ms:0.0 Fixtures.q2d)
      in
      Alcotest.(check bool) "partial" true (r.status = Protocol.Partial);
      Alcotest.(check bool) "no error" true (r.error = None))

let test_service_merged_corpus () =
  with_corpus_dir (fun dir ->
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      let r = Service.handle_query service (query 1 ~k:10 "/book[./isbn]") in
      Alcotest.(check bool) "ok" true (r.status = Protocol.Ok);
      let docs =
        List.sort_uniq compare
          (List.map (fun (a : Protocol.answer) -> a.doc) r.answers)
      in
      (* book_a, book_b live in a.xml; book_c in b.xml — all have isbn,
         so the merged top-k spans both documents. *)
      Alcotest.(check (list string)) "both docs" [ "a.xml"; "b.xml" ] docs;
      let scores = List.map (fun (a : Protocol.answer) -> a.score) r.answers in
      Alcotest.(check bool) "sorted desc" true
        (List.sort (fun a b -> Float.compare b a) scores = scores))

(* --- merged queries over a larger corpus --- *)

(* A larger multi-document corpus (xmark slices) so the merged top-k
   spans documents. *)
let with_xmark_corpus_dir n f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wp-xmark-test-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  Unix.mkdir dir 0o700;
  for i = 1 to n do
    let tree =
      Wp_xmark.Generator.generate ~seed:(100 + i) ~target_bytes:30_000 ()
    in
    write_tree (Filename.concat dir (Printf.sprintf "doc%d.xml" i)) tree
  done;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let merged_queries =
  [ "//item[./name]"; "//item[./description/parlist]"; "//keyword" ]

let service_with dir =
  let catalog = Catalog.create () in
  (match Catalog.load_dir catalog dir with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "load_dir: %s" m);
  Service.create ~catalog ()

let answer_list (r : Protocol.response) =
  List.map
    (fun (a : Protocol.answer) -> (a.doc, a.root, a.score, a.dewey))
    r.answers

(* A deadline too far out for the int64 nanosecond clock is no
   deadline at all, not an expired one; 0 has already expired; a
   negative or non-finite one (JSON 1e400 parses to infinity) is a
   typed bad_request. *)
let test_service_deadline_range () =
  with_corpus_dir (fun dir ->
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      let ask deadline_ms =
        Service.handle_query service
          (query 1 ~doc:"a.xml" ?deadline_ms "/book[./title]")
      in
      let unbounded = ask None in
      Alcotest.(check bool) "no deadline ok" true
        (unbounded.status = Protocol.Ok);
      List.iter
        (fun ms ->
          let r = ask (Some ms) in
          Alcotest.(check bool) (Printf.sprintf "%g ok" ms) true
            (r.status = Protocol.Ok);
          Alcotest.(check int)
            (Printf.sprintf "%g answers" ms)
            (List.length unbounded.answers)
            (List.length r.answers))
        [ 1e6; 1e13; Float.max_float ];
      Alcotest.(check bool) "0 expired" true
        ((ask (Some 0.0)).status = Protocol.Partial);
      List.iter
        (fun ms ->
          let r = ask (Some ms) in
          Alcotest.(check bool) (Printf.sprintf "%g bad_request" ms) true
            (r.status = Protocol.Error && r.code = Some Protocol.Bad_request))
        [ -1.0; Float.infinity; Float.neg_infinity; Float.nan ];
      match
        Protocol.parse_request
          {|{"op":"query","id":9,"query":"/book","deadline_ms":1e400}|}
      with
      | Ok (Protocol.Query q) ->
          let r = Service.handle_query service q in
          Alcotest.(check bool) "JSON 1e400 bad_request" true
            (r.code = Some Protocol.Bad_request)
      | Ok _ -> Alcotest.fail "not a query"
      | Error m -> Alcotest.failf "1e400 does not parse: %s" m)

(* Merged serving over a mapped (.wpidx) corpus: build index files,
   load them, and compare against the same corpus parsed from XML. *)
let test_merged_mapped_corpus () =
  with_xmark_corpus_dir 3 (fun dir ->
      let mapped_dir = Filename.concat dir "mapped" in
      Unix.mkdir mapped_dir 0o700;
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun f ->
              try Sys.remove (Filename.concat mapped_dir f)
              with Sys_error _ -> ())
            (Sys.readdir mapped_dir);
          try Unix.rmdir mapped_dir with Unix.Unix_error _ -> ())
        (fun () ->
          List.iter
            (fun f ->
              if Filename.check_suffix f ".xml" then begin
                let d =
                  Wp_xml.Doc.of_tree
                    (Wp_xml.Parser.parse_file (Filename.concat dir f))
                in
                let out =
                  Filename.concat mapped_dir
                    (Filename.remove_extension f ^ ".xml")
                in
                (* Keep the catalog names identical (.xml) so answer
                   tagging lines up; content sniffing, not the
                   extension, picks the loader. *)
                let (_ : int) = Wp_storage.Index_file.write out d in
                ()
              end)
            (Array.to_list (Sys.readdir dir));
          let xml_service = service_with dir in
          let mapped_service = service_with mapped_dir in
          List.iter
            (fun q ->
              let a = Service.handle_query xml_service (query 1 ~k:6 q) in
              let b = Service.handle_query mapped_service (query 2 ~k:6 q) in
              Alcotest.(check bool) (q ^ " xml ok") true
                (a.status = Protocol.Ok);
              Alcotest.(check bool) (q ^ " mapped ok") true
                (b.status = Protocol.Ok);
              Alcotest.(check bool) (q ^ " identical answers") true
                (answer_list a = answer_list b))
            merged_queries))

(* --- merged queries: best bound first, stop at the first document
   that cannot place --- *)

(* A temporary directory holding the named trees, loaded into a fresh
   catalog one file at a time in the list's order. *)
let with_loaded_docs docs f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wp-merged-%d-%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let catalog = Catalog.create () in
      List.iter
        (fun (name, tree) ->
          let path = Filename.concat dir name in
          write_tree path tree;
          match Catalog.load_file catalog path with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "load_file %s: %s" name m)
        docs;
      f catalog)

(* The merge as it was before documents could be skipped: every
   document run to its own top-k, the union sorted by score, then
   document name, then root id, and cut at k. *)
let reference_merged catalog ~algo ~k q =
  let tagged =
    List.concat_map
      (fun (doc : Catalog.doc) ->
        match Catalog.plan_for catalog doc q with
        | Error e -> Alcotest.failf "plan %s: %s" q (Catalog.plan_error_message e)
        | Ok c ->
            List.map
              (fun (e : Whirlpool.Topk_set.entry) ->
                (doc.name, e.root, e.score, e.progress))
              (Fixtures.run_algo algo c.plan ~k).answers)
      (Catalog.docs catalog)
  in
  List.filteri
    (fun i _ -> i < k)
    (List.sort
       (fun (d1, r1, s1, _) (d2, r2, s2, _) ->
         match Float.compare s2 s1 with
         | 0 -> compare (d1, r1) (d2, r2)
         | c -> c)
       tagged)

let served_entries (r : Protocol.response) =
  List.map
    (fun (a : Protocol.answer) -> (a.doc, a.root, a.score, a.progress))
    r.answers

let skipped_docs service =
  Wp_obs.Registry.counter_value
    (Wp_obs.Registry.counter (Service.registry service)
       "wp_serve_merged_docs_skipped_total")

let server_ops (r : Protocol.response) =
  match Option.bind r.stats (Json.member "server_ops") with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.fail "reply stats lack server_ops"

let hand_doc items = Wp_xml.Tree.el "site" [ Wp_xml.Tree.el "regions" items ]

(* Hand-made auction documents whose head bounds differ: a document
   allows each of a name, a description (holding a parlist, or text
   with a keyword) and a mailbox or not, and each of its items carries
   an allowed part or not. *)
let gen_items =
  let open QCheck2.Gen in
  let* name = bool and* description = int_bound 2 and* mailbox = bool in
  let part allowed x =
    if allowed then map (fun b -> if b then [ x ] else []) bool else return []
  in
  let open Wp_xml.Tree in
  let description =
    match description with
    | 1 -> Some (el "parlist" [ el "listitem" [ leaf "text" "plain" ] ])
    | 2 -> Some (el "text" [ leaf "keyword" "rare" ])
    | _ -> None
  in
  let gen_item =
    map3
      (fun n d m -> el "item" (n @ d @ m))
      (part name (leaf "name" "gadget"))
      (match description with
      | Some d -> part true (el "description" [ d ])
      | None -> return [])
      (part mailbox (el "mailbox" [ el "mail" [ leaf "text" "hi" ] ]))
  in
  list_size (int_range 1 14) gen_item

type merged_doc = Xmark of int * int | Hand of Wp_xml.Tree.t list

let gen_merged_doc =
  let open QCheck2.Gen in
  oneof
    [
      map2
        (fun seed bytes -> Xmark (seed, bytes))
        (int_range 1 50) (int_range 4_000 12_000);
      map (fun items -> Hand items) gen_items;
    ]

let merged_doc_tree = function
  | Xmark (seed, bytes) ->
      Wp_xmark.Generator.generate ~seed ~target_bytes:bytes ()
  | Hand items -> hand_doc items

(* Documents named d0 .. dn, loaded in a shuffled order, so catalog
   order is not name order. *)
let gen_merged_case =
  let open QCheck2.Gen in
  let* docs = list_size (int_range 2 5) gen_merged_doc in
  let named = List.mapi (fun i d -> (Printf.sprintf "d%d.xml" i, d)) docs in
  let* order = shuffle_l named in
  let* k = int_range 1 12 in
  return (order, k)

let print_merged_case (docs, k) =
  Printf.sprintf "k=%d [%s]" k
    (String.concat "; "
       (List.map
          (fun (name, d) ->
            match d with
            | Xmark (seed, bytes) ->
                Printf.sprintf "%s xmark seed %d, %d bytes" name seed bytes
            | Hand items -> Printf.sprintf "%s %d hand items" name (List.length items))
          docs))

let scores_agree a b =
  List.length a = List.length b
  && List.for_all2
       (fun (_, _, x, _) (_, _, y, _) -> Float.abs (x -. y) < 1e-9)
       a b

(* The served merge equals the reference for every merged query and
   engine: entry for entry where the engine fixes which tied roots it
   keeps, score for score for Whirlpool-M and twig. *)
let prop_merged_equals_reference =
  QCheck2.Test.make ~name:"merged answers = reference merge" ~count:40
    ~print:print_merged_case gen_merged_case (fun (docs, k) ->
      with_loaded_docs
        (List.map (fun (name, d) -> (name, merged_doc_tree d)) docs)
        (fun catalog ->
          let service = Service.create ~catalog () in
          List.for_all
            (fun q ->
              List.for_all
                (fun algo ->
                  let r =
                    Service.handle_query service
                      {
                        (query 1 ~k q) with
                        algo =
                          Some (Whirlpool.Engine.Config.algo_to_string algo);
                      }
                  in
                  let got = served_entries r
                  and want = reference_merged catalog ~algo ~k q in
                  r.status = Protocol.Ok
                  &&
                  match algo with
                  | Whirlpool.Engine.Config.Whirlpool_mt | Twig ->
                      scores_agree got want
                  | Whirlpool | Lockstep | Lockstep_noprun -> got = want)
                Whirlpool.Engine.Config.all_algos)
            merged_queries))

let head_bound catalog name q =
  match Catalog.find catalog name with
  | None -> Alcotest.failf "no document %s" name
  | Some doc -> (
      match Catalog.plan_for catalog doc q with
      | Ok c -> Whirlpool.Plan.head_bound c.plan
      | Error e -> Alcotest.failf "plan %s: %s" q (Catalog.plan_error_message e))

let xmark_docs n =
  List.init n (fun i ->
      ( Printf.sprintf "doc%d.xml" (i + 1),
        Wp_xmark.Generator.generate ~seed:(100 + i + 1) ~target_bytes:30_000 ()
      ))

(* Four documents tie at the head bound and the first by name fills k
   at it: the other three never run, so the merged reply costs what
   that document's own reply costs. *)
let test_merged_skip_equal_bounds () =
  let q = "//item[./name]" and k = 10 in
  with_loaded_docs (List.rev (xmark_docs 4)) (fun catalog ->
      let service = Service.create ~catalog () in
      let head = head_bound catalog "doc1.xml" q in
      List.iter
        (fun name ->
          Alcotest.(check (float 0.0)) (name ^ " ties doc1's bound") head
            (head_bound catalog name q))
        [ "doc2.xml"; "doc3.xml"; "doc4.xml" ];
      let merged = Service.handle_query service (query 1 ~k q) in
      Alcotest.(check bool) "ok" true (merged.status = Protocol.Ok);
      Alcotest.(check int) "three documents skipped" 3 (skipped_docs service);
      Alcotest.(check bool) "doc1 fills k at the bound" true
        (List.length merged.answers = k
        && List.for_all
             (fun (a : Protocol.answer) -> a.doc = "doc1.xml" && a.score = head)
             merged.answers);
      let single = Service.handle_query service (query 2 ~doc:"doc1.xml" ~k q) in
      Alcotest.(check int) "server_ops of doc1 alone" (server_ops single)
        (server_ops merged);
      Alcotest.(check bool) "equals the reference merge" true
        (served_entries merged
        = reference_merged catalog ~algo:Whirlpool.Engine.Config.Whirlpool ~k q))

let named_items n ~name =
  List.init n (fun _ ->
      Wp_xml.Tree.el "item"
        (if name then [ Wp_xml.Tree.leaf "name" "gadget" ] else []))

(* b.xml's items all carry a name, a.xml's none: b's head bound is
   strictly higher, so b runs first although a sorts first by name, fills
   k above a's bound, and a is skipped. *)
let test_merged_skip_lower_bound () =
  let q = "//item[./name]" and k = 3 in
  with_loaded_docs
    [
      ("a.xml", hand_doc (named_items 5 ~name:false));
      ("b.xml", hand_doc (named_items 5 ~name:true));
    ]
    (fun catalog ->
      let service = Service.create ~catalog () in
      Alcotest.(check bool) "b's bound is higher" true
        (head_bound catalog "b.xml" q > head_bound catalog "a.xml" q);
      let merged = Service.handle_query service (query 1 ~k q) in
      Alcotest.(check int) "a skipped" 1 (skipped_docs service);
      Alcotest.(check (list string)) "every answer from b" [ "b.xml" ]
        (List.sort_uniq compare
           (List.map (fun (a : Protocol.answer) -> a.doc) merged.answers));
      let single = Service.handle_query service (query 2 ~doc:"b.xml" ~k q) in
      Alcotest.(check int) "server_ops of b alone" (server_ops single)
        (server_ops merged))

(* b.xml holds one named item and several unnamed ones, a.xml unnamed
   ones only.  b runs first (higher bound) and its k-th entry scores
   a's head bound; a ties it but sorts before b by name, so a runs and
   its entries displace b's tied ones. *)
let test_merged_tie_earlier_name_runs () =
  let q = "//item[./name]" and k = 3 in
  with_loaded_docs
    [
      ("b.xml", hand_doc (named_items 1 ~name:true @ named_items 4 ~name:false));
      ("a.xml", hand_doc (named_items 4 ~name:false));
    ]
    (fun catalog ->
      let service = Service.create ~catalog () in
      let b = Service.handle_query service (query 1 ~doc:"b.xml" ~k q) in
      let a_head = head_bound catalog "a.xml" q in
      Alcotest.(check bool) "b's k-th entry scores a's bound" true
        (match List.rev b.answers with
        | last :: _ -> List.length b.answers = k && last.score = a_head
        | [] -> false);
      let merged = Service.handle_query service (query 2 ~k q) in
      Alcotest.(check int) "nothing skipped" 0 (skipped_docs service);
      Alcotest.(check bool) "a contributes" true
        (List.exists (fun (a : Protocol.answer) -> a.doc = "a.xml") merged.answers);
      Alcotest.(check bool) "equals the reference merge" true
        (served_entries merged
        = reference_merged catalog ~algo:Whirlpool.Engine.Config.Whirlpool ~k q))

let test_merged_expired_deadline_partial () =
  with_loaded_docs (xmark_docs 4) (fun catalog ->
      let service = Service.create ~catalog () in
      let r =
        Service.handle_query service
          (query 1 ~k:10 ~deadline_ms:0.0 "//item[./name]")
      in
      Alcotest.(check bool) "partial" true (r.status = Protocol.Partial);
      Alcotest.(check bool) "no error" true (r.error = None);
      (* Every plan resolves before any document runs, so a query that
         does not parse is refused even when its deadline has passed. *)
      let bad =
        Service.handle_query service (query 2 ~deadline_ms:0.0 "//item[")
      in
      Alcotest.(check bool) "unparseable: bad_request" true
        (bad.code = Some Protocol.Bad_request))

(* Two mapped documents of equal node count but distinct content in
   one catalog: the guide memo is keyed by document identity, so it
   neither compares the documents' accessor closures nor hands one
   document's guide to the other. *)
let test_mapped_equal_size_docs () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wp-equal-size-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  Unix.mkdir dir 0o700;
  let a = Wp_xml.Tree.el "bib" [ Fixtures.book_a ] in
  let b =
    Wp_xml.Tree.el "bib"
      [
        Wp_xml.Tree.el "book"
          [
            Wp_xml.Tree.leaf "title" "psmith";
            Wp_xml.Tree.el "publisher"
              [ Wp_xml.Tree.leaf "name" "wodehouse" ];
            Wp_xml.Tree.el "info" [ Wp_xml.Tree.leaf "isbn" "5678" ];
            Wp_xml.Tree.leaf "price" "12.50";
          ];
      ]
  in
  Alcotest.(check int) "equal node counts" (Wp_xml.Tree.size a)
    (Wp_xml.Tree.size b);
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      List.iter
        (fun (name, tree) ->
          let (_ : int) =
            Wp_storage.Index_file.write
              (Filename.concat dir name)
              (Wp_xml.Doc.of_tree tree)
          in
          ())
        [ ("a.wpidx", a); ("b.wpidx", b) ];
      let service = service_with dir in
      List.iter
        (fun (doc, expected) ->
          let r =
            Service.handle_query service
              {
                (query 1 ~doc ~k:5 "/book[./info/publisher]") with
                algo = Some "twig";
              }
          in
          Alcotest.(check bool) (doc ^ " ok") true (r.status = Protocol.Ok);
          Alcotest.(check int) (doc ^ " answers") expected
            (List.length r.answers))
        [ ("a.wpidx", 1); ("b.wpidx", 0) ])

let test_service_errors () =
  with_corpus_dir (fun dir ->
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      let err q =
        let r = Service.handle_query service q in
        Alcotest.(check bool) "error status" true (r.status = Protocol.Error);
        Alcotest.(check bool) "has message" true (r.error <> None)
      in
      err (query 1 ~doc:"missing.xml" "/book");
      err (query 2 "][garbage");
      err (query 3 ~k:0 "/book");
      err { (query 4 "/book") with algo = Some "quicksort" };
      err { (query 5 "/book") with routing = Some "psychic" };
      err { (query 7 "/book") with batch = Some 1 };
      (* Every resolution failure is classified bad_request. *)
      List.iter
        (fun q ->
          let r = Service.handle_query service q in
          Alcotest.(check bool) "bad_request code" true
            (r.code = Some Protocol.Bad_request))
        [
          query 8 ~doc:"missing.xml" "/book";
          query 9 "][garbage";
          { (query 10 "/book") with batch = Some 4 };
        ];
      (* And an empty corpus is a typed error, not a crash. *)
      let empty = Service.create ~catalog:(Catalog.create ()) () in
      let r = Service.handle_query empty (query 6 "/book") in
      Alcotest.(check bool) "empty corpus error" true
        (r.status = Protocol.Error))

let test_service_metrics_json () =
  with_corpus_dir (fun dir ->
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      ignore (Service.handle_query service (query 1 ~k:2 "/book[./title]"));
      Service.record_shed service;
      let snap = Service.metrics_json service in
      Alcotest.(check bool) "requests counted" true
        (member_exn "requests" snap = Json.Int 1);
      Alcotest.(check bool) "shed counted" true
        (member_exn "shed" snap = Json.Int 1);
      let corpus = member_exn "corpus" snap in
      Alcotest.(check bool) "two documents" true
        (member_exn "documents" corpus = Json.Int 2);
      (* The merged query compiled one plan per document. *)
      let pc = member_exn "plan_cache" snap in
      Alcotest.(check bool) "plan cache misses" true
        (member_exn "misses" pc = Json.Int 2);
      let table () = member_exn "component_table" (Service.metrics_json service) in
      let int_field name j =
        match member_exn name j with Json.Int i -> i | _ -> Alcotest.fail name
      in
      let before = table () in
      Alcotest.(check bool) "component table filled" true
        (int_field "misses" before > 0 && int_field "size" before > 0);
      (* A second query sharing the title component reads it from the
         memo. *)
      ignore
        (Service.handle_query service
           (query 2 ~k:2 "/book[./title and ./price]"));
      Alcotest.(check bool) "shared component hits" true
        (int_field "hits" (table ()) > int_field "hits" before);
      let s = Json.to_string snap in
      Alcotest.(check bool) "snapshot finite" false
        (Test_stats.contains ~needle:"nan" s))

let test_service_prometheus () =
  with_corpus_dir (fun dir ->
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      ignore (Service.handle_query service (query 1 ~k:2 "/book[./title]"));
      Service.record_shed service;
      let page = Service.prometheus service in
      (match Wp_obs.Registry.validate_exposition page with
      | Ok () -> ()
      | Error m -> Alcotest.failf "invalid exposition: %s\n%s" m page);
      List.iter
        (fun needle ->
          Alcotest.(check bool) (needle ^ " present") true
            (Test_stats.contains ~needle page))
        [
          "wp_serve_requests_total{status=\"ok\"} 1";
          "wp_serve_shed_total 1";
          "wp_serve_latency_milliseconds_bucket";
          "wp_engine_server_ops_total";
          "wp_corpus_documents 2";
          "wp_plan_cache_misses_total";
          "wp_component_table_hits_total";
          "wp_component_table_misses_total";
        ])

let test_slow_query_log () =
  with_corpus_dir (fun dir ->
      (* Threshold 0: every request is slow, so the log must fill. *)
      let service =
        Service.create ~slow_query_ms:0.0 ~catalog:(loaded_catalog dir) ()
      in
      ignore (Service.handle_query service (query 1 ~k:2 "/book[./title]"));
      (match Service.slow_queries service with
      | Json.List [ entry ] ->
          Alcotest.(check bool) "query text" true
            (Json.member "query" entry = Some (Json.String "/book[./title]"));
          Alcotest.(check bool) "has spans" true
            (Json.member "spans" entry <> None);
          (match Json.member "profile" entry with
          | Some (Json.List (_ :: _)) -> ()
          | _ -> Alcotest.fail "expected a non-empty per-server profile")
      | _ -> Alcotest.fail "expected one slow-query entry");
      (* Off by default: a plain service records nothing. *)
      let quiet = Service.create ~catalog:(loaded_catalog dir) () in
      ignore (Service.handle_query quiet (query 2 ~k:2 "/book[./title]"));
      Alcotest.(check bool) "log off by default" true
        (Service.slow_queries quiet = Json.List []))

(* --- Pool admission control --- *)

let test_pool_sheds_when_full () =
  (* One worker parked on a gate, queue of 2: of 4 concurrent
     submissions at most 3 can be accepted (1 running + 2 queued), so
     at least one MUST be shed — the queue provably never grows past
     its bound. *)
  let pool = Pool.Real.create ~workers:1 ~queue_depth:2 () in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let job () =
    Mutex.lock gate;
    Mutex.unlock gate
  in
  let accepted = ref 0 and shed = ref 0 in
  for _ = 1 to 4 do
    if Pool.Real.submit pool job then incr accepted else incr shed
  done;
  Alcotest.(check bool) "at least one shed" true (!shed >= 1);
  Alcotest.(check bool) "bounded accepts" true (!accepted <= 3);
  Mutex.unlock gate;
  Pool.Real.shutdown pool;
  let s = Pool.Real.stats pool in
  Alcotest.(check int) "submitted" !accepted s.submitted;
  Alcotest.(check int) "shed" !shed s.shed;
  Alcotest.(check int) "drained before join"
    s.submitted (s.executed + s.failed);
  (* After shutdown everything is shed. *)
  Alcotest.(check bool) "post-shutdown shed" false (Pool.Real.submit pool job)
[@@wp.allow
  "lock-leak the gate is held on purpose to park the worker while \
   submissions pile up, and the jobs only lock-then-unlock it"]

let test_pool_runs_jobs () =
  let pool = Pool.Real.create ~workers:3 ~queue_depth:64 () in
  let counter = Atomic.make 0 in
  let accepted = ref 0 in
  for _ = 1 to 50 do
    if Pool.Real.submit pool (fun () -> Atomic.incr counter) then
      incr accepted
  done;
  Pool.Real.shutdown pool;
  Alcotest.(check int) "all accepted jobs ran" !accepted (Atomic.get counter);
  let s = Pool.Real.stats pool in
  Alcotest.(check int) "accounting" s.submitted (s.executed + s.failed);
  Alcotest.(check int) "no failures" 0 s.failed

(* --- sockets end to end --- *)

let temp_socket () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "wp-test-%d-%d.sock" (Unix.getpid ()) (Random.int 100000))

let start_event_server ?http ~socket ~service () =
  match Event.spawn ~workers:2 ~queue_depth:8 ?http ~socket ~service () with
  | Ok started -> started
  | Error e -> Alcotest.failf "event server failed to start: %s" e

let connect_exn ?version socket =
  match Client.connect ?version socket with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Client.error_to_string e)

let call_exn client req =
  match Client.call client req with
  | Ok r -> r
  | Error e -> Alcotest.failf "call: %s" (Client.error_to_string e)

(* A pool size below 1 is refused before anything binds: [spawn]
   returns [Error] at once (a 10 s watchdog stands in for a hang) and
   leaves no socket file behind. *)
let test_spawn_rejects_empty_pool () =
  with_corpus_dir (fun dir ->
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      List.iter
        (fun (label, workers, queue_depth) ->
          let socket = temp_socket () in
          let outcome = Atomic.make None in
          let (_ : Thread.t) =
            Thread.create
              (fun () ->
                Atomic.set outcome
                  (Some (Event.spawn ~workers ~queue_depth ~socket ~service ())))
              ()
          in
          let deadline = Whirlpool.Clock.now () +. 10.0 in
          let rec wait () =
            match Atomic.get outcome with
            | Some r -> r
            | None when Whirlpool.Clock.now () > deadline ->
                Alcotest.failf "%s: spawn still blocked after 10 s" label
            | None ->
                Thread.delay 0.01;
                wait ()
          in
          (match wait () with
          | Error e ->
              Alcotest.(check bool) (label ^ ": names the size") true
                (Test_stats.contains ~needle:">= 1" e)
          | Ok (server, thread) ->
              Event.request_stop server;
              Thread.join thread;
              Alcotest.failf "%s: spawn started a server" label);
          Alcotest.(check bool) (label ^ ": no socket file") false
            (Sys.file_exists socket))
        [ ("queue_depth=0", 1, 0); ("workers=0", 0, 8); ("workers=-1", -1, 8) ])

(* The Done frame of an expired query carries the partial flag. *)
let test_wire_deadline_over_socket () =
  with_corpus_dir (fun dir ->
      let socket = temp_socket () in
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      let _server, thread = start_event_server ~socket ~service () in
      let client = connect_exn socket in
      let r =
        call_exn client
          (Protocol.Query (query 1 ~deadline_ms:0.0 "/book[./title]"))
      in
      Alcotest.(check bool) "partial over the wire" true
        (r.status = Protocol.Partial);
      ignore (Client.call client (Protocol.Stop { id = 2 }));
      Client.close client;
      Thread.join thread)

(* A query that parses but puts a value predicate on an internal node
   is refused by the static analyzer: the catalog says [Rejected],
   caches nothing, and a served request gets [lint_rejected]. *)
let test_lint_rejected_served () =
  with_corpus_dir (fun dir ->
      let catalog = loaded_catalog dir in
      let q = "//a[./b[./c] = 'x']" in
      let doc = Option.get (Catalog.find catalog "a.xml") in
      let size () = (Catalog.plan_cache_stats catalog).size in
      let before = size () in
      (match Catalog.plan_for catalog doc q with
      | Error (Catalog.Rejected _) -> ()
      | Error (Catalog.Bad_query m) -> Alcotest.failf "bad, not rejected: %s" m
      | Ok _ -> Alcotest.fail "compiled a rejected query");
      Alcotest.(check int) "no plan cached" before (size ());
      let socket = temp_socket () in
      let service = Service.create ~catalog () in
      let _server, thread = start_event_server ~socket ~service () in
      let client = connect_exn socket in
      let r = call_exn client (Protocol.Query (query 1 q)) in
      Alcotest.(check bool) "error status" true (r.status = Protocol.Error);
      Alcotest.(check bool) "lint_rejected over the wire" true
        (r.code = Some Protocol.Lint_rejected);
      ignore (Client.call client (Protocol.Stop { id = 2 }));
      Client.close client;
      Thread.join thread)

let test_wire_frame_roundtrip () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let payload = "{\"x\":\"\xc3\xa9\"}" in
      (match Wire.write_frame w payload with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" e);
      match Wire.read_frame r with
      | Ok p -> Alcotest.(check string) "frame payload" payload p
      | Error e -> Alcotest.failf "read: %s" e)

(* One request and its reply.  [content_length] overrides the header's
   value (default: the body's length); a server that never answers
   leaves [None] for the status once the read times out. *)
let http_request ~port ~meth ~path ?(body = "") ?content_length () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      let content_length =
        Option.value content_length
          ~default:(string_of_int (String.length body))
      in
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %s\r\n\
           Connection: close\r\n\r\n%s"
          meth path content_length body
      in
      let (_ : int) = Unix.write_substring fd req 0 (String.length req) in
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
      in
      drain ();
      let s = Buffer.contents buf in
      let hdr_end =
        let rec scan i =
          if i + 3 >= String.length s then String.length s
          else if
            s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
            && s.[i + 3] = '\n'
          then i
          else scan (i + 1)
        in
        scan 0
      in
      let status =
        match String.split_on_char ' ' s with
        | _ :: code :: _ -> int_of_string_opt code
        | _ -> None
      in
      let body =
        if hdr_end + 4 <= String.length s then
          String.sub s (hdr_end + 4) (String.length s - hdr_end - 4)
        else ""
      in
      (status, body))

(* A removed request knob — [use_cache] toggled the candidate cache,
   [batch] set the bulk-routing width, [bound_push] toggled cross-shard
   bound pushing — is a typed bad_request naming the field, whatever
   its value, in process, over the socket and over HTTP. *)
let check_removed_knob ~field carrying values =
  with_corpus_dir (fun dir ->
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      let check how (r : Protocol.response) =
        Alcotest.(check bool) (how ^ ": error reply") true
          (r.status = Protocol.Error);
        Alcotest.(check bool) (how ^ ": typed bad_request") true
          (r.code = Some Protocol.Bad_request);
        Alcotest.(check bool) (how ^ ": names " ^ field) true
          (Test_stats.contains ~needle:field
             (Option.value r.error ~default:""))
      in
      let socket = temp_socket () in
      let server, thread = start_event_server ~http:0 ~socket ~service () in
      let port =
        match Event.http_port server with
        | Some p -> p
        | None -> Alcotest.fail "no http port bound"
      in
      let client = connect_exn socket in
      List.iter
        (fun (label, v) ->
          let q = carrying v in
          check ("handle_query " ^ label) (Service.handle_query service q);
          check ("socket " ^ label) (call_exn client (Protocol.Query q));
          let status, body =
            http_request ~port ~meth:"POST" ~path:"/query"
              ~body:(Json.to_string (Protocol.request_to_json (Protocol.Query q)))
              ()
          in
          Alcotest.(check (option int)) ("http " ^ label ^ ": 400") (Some 400)
            status;
          match Protocol.parse_response body with
          | Ok r -> check ("http " ^ label) r
          | Error e -> Alcotest.failf "http %s: not a response: %s" label e)
        values;
      ignore (Client.call client (Protocol.Stop { id = 3 }));
      Client.close client;
      Thread.join thread)

let test_use_cache_rejected () =
  check_removed_knob ~field:"use_cache"
    (fun u -> { (query 1 "/book[./title]") with use_cache = Some u })
    [ ("use_cache=true", true); ("use_cache=false", false) ]

let test_batch_rejected () =
  check_removed_knob ~field:"batch"
    (fun b -> { (query 1 "/book[./title]") with batch = Some b })
    [ ("batch=1", 1); ("batch=4", 4) ]

let test_bound_push_rejected () =
  check_removed_knob ~field:"bound_push"
    (fun b -> { (query 1 "/book[./title]") with bound_push = Some b })
    [ ("bound_push=true", true); ("bound_push=false", false) ]

(* --- the algo axis over the service and the wire --- *)

(* Per-document, with k past every exact match, every full backend must
   return the same answer list; plain twig is exact-only, so its
   answers are the exact prefix of the default backend's (the relaxed
   tail is absent).  The twig backend also builds each document's
   dataguide. *)
let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

let test_service_algo_backends () =
  with_corpus_dir (fun dir ->
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      let docs =
        List.map
          (fun (d : Catalog.doc) -> d.name)
          (Catalog.docs (Service.catalog service))
      in
      List.iter
        (fun doc ->
          let base =
            Service.handle_query service (query 1 ~doc ~k:10 "/book[./isbn]")
          in
          Alcotest.(check bool) (doc ^ " base ok") true
            (base.status = Protocol.Ok);
          List.iter
            (fun algo ->
              let r =
                Service.handle_query service
                  {
                    (query 2 ~doc ~k:10 "/book[./isbn]") with
                    algo = Some algo;
                  }
              in
              let c msg = Printf.sprintf "%s --algo %s %s" doc algo msg in
              Alcotest.(check bool) (c "ok") true (r.status = Protocol.Ok);
              if String.equal algo "twig" then
                Alcotest.(check bool)
                  (c "answers are the exact prefix of the default's")
                  true
                  (answer_list r <> [] && is_prefix (answer_list r) (answer_list base))
              else
                Alcotest.(check bool)
                  (c "answers match default backend")
                  true
                  (answer_list r = answer_list base))
            [ "twig"; "lockstep"; "lockstep-noprun"; "whirlpool-s"; "ws" ])
        docs)

let test_algo_over_wire () =
  with_corpus_dir (fun dir ->
      let socket = temp_socket () in
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      let _server, thread = start_event_server ~socket ~service () in
      let client = connect_exn socket in
      (let r =
         call_exn client
           (Protocol.Query
              { (query 1 ~k:3 "/book[./title]") with algo = Some "twig" })
       in
       Alcotest.(check bool) "twig over the wire ok" true
         (r.status = Protocol.Ok);
       Alcotest.(check bool) "twig has answers" true (r.answers <> []));
      List.iter
        (fun algo ->
          let r =
            call_exn client
              (Protocol.Query { (query 2 "/book") with algo = Some algo })
          in
          Alcotest.(check bool) (algo ^ " -> error reply") true
            (r.status = Protocol.Error);
          Alcotest.(check bool) (algo ^ " typed bad_request") true
            (r.code = Some Protocol.Bad_request))
        [ "quicksort"; "twig-seeded" ];
      ignore (Client.call client (Protocol.Stop { id = 3 }));
      Client.close client;
      Thread.join thread)

(* --- reply frame codec --- *)

let sample_answer =
  { Protocol.doc = "a.xml"; root = 3; dewey = "0.1"; score = 0.5; progress = 2 }

let roundtrip_frame frame =
  match Protocol.parse_frame (Json.to_string (Protocol.frame_to_json frame)) with
  | Ok f -> Alcotest.(check bool) "frame round-trip" true (f = frame)
  | Error m -> Alcotest.failf "frame does not reparse: %s" m

let test_protocol_v2_codec () =
  roundtrip_frame (Protocol.Part { id = 4; seq = 0; answer = sample_answer });
  roundtrip_frame
    (Protocol.Done
       (Protocol.ok_response ~answers:[ sample_answer ] ~partial:true ~id:4
          ~elapsed_ms:1.5 ()));
  (* Every reply is framed: a bare response object is a protocol
     error, not a Done. *)
  (match
     Protocol.parse_frame
       (Json.to_string
          (Protocol.response_to_json
             (Protocol.ok_response ~id:9 ~elapsed_ms:0.0 ())))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "frame-less response accepted as a frame");
  (* An unknown frame tag is a protocol error, not a silent Done. *)
  match Protocol.parse_frame "{\"id\":1,\"frame\":\"warp\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown frame tag accepted"

(* --- streaming certification: engine-level prefix property --- *)

let stream_algos =
  [ "whirlpool-s"; "whirlpool-m"; "lockstep"; "lockstep-noprun"; "twig" ]

let entry_key (e : Whirlpool.Topk_set.entry) = (e.root, e.score)

(* On every fig6/fig8 workload query (the paper's XMark q1-q3) and the
   Figure 2 book queries, for every backend: a complete run's certified
   stream is exactly the final buffered top-k, in order.  (Mid-run the
   stream is a stable prefix; at return the engines flush the
   certified-at-end tail, so the whole list must match.) *)
let test_stream_prefix_matches_final () =
  let cases =
    List.map
      (fun q -> (Fixtures.books_index, q))
      [ Fixtures.q2a; Fixtures.q2b; Fixtures.q2c; Fixtures.q2d ]
    @ List.map
        (fun q -> (Lazy.force Fixtures.xmark_index, q))
        [ Fixtures.q1; Fixtures.q2; Fixtures.q3 ]
  in
  List.iter
    (fun (idx, q) ->
      let plan = Whirlpool.Run.compile idx (Fixtures.parse q) in
      List.iter
        (fun name ->
          let algo =
            Option.get (Whirlpool.Engine.Config.algo_of_string name)
          in
          let streamed = ref [] in
          let config =
            Whirlpool.Engine.Config.(
              default |> with_algo algo
              |> with_on_certified (fun e -> streamed := e :: !streamed))
          in
          let r = Wp_twig.Backend.run ~config plan ~k:5 in
          let c msg = Printf.sprintf "%s --algo %s %s" q name msg in
          Alcotest.(check bool) (c "complete") false r.partial;
          Alcotest.(check bool)
            (c "certified stream equals the final top-k")
            true
            (List.rev_map entry_key !streamed
            = List.map entry_key r.answers))
        stream_algos)
    cases

(* A stopped run must stop emitting without retracting: the stream
   stays a prefix of the partial result's answers. *)
let test_stream_partial_run_emits_prefix_only () =
  let plan = books_plan Fixtures.q2d in
  let streamed = ref [] in
  let config =
    Whirlpool.Engine.Config.(
      default
      |> with_should_stop (fun () -> true)
      |> with_on_certified (fun e -> streamed := e :: !streamed))
  in
  let r = Whirlpool.Engine.run ~config plan ~k:3 in
  Alcotest.(check bool) "partial" true r.partial;
  let rec prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | x :: xs', y :: ys' -> x = y && prefix xs' ys'
    | _ :: _, [] -> false
  in
  Alcotest.(check bool) "stream is a prefix of the partial answers" true
    (prefix (List.rev_map entry_key !streamed) (List.map entry_key r.answers))

(* When each answer streams, not just what streams.  For a Whirlpool-S
   run the pop order is deterministic, so the number of [Popped] events
   seen before each emission is a fixed fingerprint of the certification
   points.  Encoded as space-separated pop counts in emission order, a
   run of [n] equal counts written [c*n], then [/ total pops]: a count
   equal to the total is an entry only the end-of-run flush emitted. *)
let emission_timing plan ~policy ~k =
  (* A one-span cap keeps only the root: child spans are dropped, so
     every event lands on the root and a count stays cheap. *)
  let obs = Wp_obs.Obs.create ~max_spans:1 () in
  let pops () =
    List.fold_left
      (fun n (s : Wp_obs.Obs.span_record) ->
        List.fold_left
          (fun n (e : Wp_obs.Obs.stamped) ->
            match e.event with Wp_obs.Obs.Popped _ -> n + 1 | _ -> n)
          n s.events)
      0 (Wp_obs.Obs.spans obs)
  in
  let at = ref [] in
  let config =
    Whirlpool.Engine.Config.(
      default
      |> with_queue_policy policy
      |> with_obs obs
      |> with_on_certified (fun _ -> at := pops () :: !at))
  in
  ignore (Whirlpool.Engine.run ~config plan ~k : Whirlpool.Engine.result);
  let rec runs acc = function
    | [] -> List.rev acc
    | c :: rest ->
        let rec count n = function
          | c' :: rest' when c' = c -> count (n + 1) rest'
          | rest' -> (n, rest')
        in
        let n, rest = count 1 rest in
        let s = if n = 1 then string_of_int c else Printf.sprintf "%d*%d" c n in
        runs (s :: acc) rest
  in
  Printf.sprintf "%s / %d" (String.concat " " (runs [] (List.rev !at))) (pops ())

let timing_queries =
  let books = Lazy.from_val Fixtures.books_index in
  [ ("q2a", books, Fixtures.q2a); ("q2b", books, Fixtures.q2b);
    ("q2c", books, Fixtures.q2c); ("q2d", books, Fixtures.q2d);
    ("q1", Fixtures.xmark_index, Fixtures.q1);
    ("q2", Fixtures.xmark_index, Fixtures.q2);
    ("q3", Fixtures.xmark_index, Fixtures.q3) ]

let timing_policies =
  Whirlpool.Strategy.
    [ ("fifo", Fifo); ("current", Current_score); ("max_next", Max_next_score);
      ("max_final", Max_final_score) ]

(* Recorded from a build whose certification sorted the whole top-k
   set after every pop (the run's pop order and alive bound otherwise
   unchanged, per-root seed bounds included); any cheaper certification
   must reproduce them. *)
let timing_goldens =
  [
    (("q2a", 5, "fifo"), "10 11 12 / 12");
    (("q2a", 5, "current"), "4 8 12 / 12");
    (("q2a", 5, "max_next"), "4 8 12 / 12");
    (("q2a", 5, "max_final"), "4 8 12 / 12");
    (("q2a", 75, "fifo"), "10 11 12 / 12");
    (("q2a", 75, "current"), "4 8 12 / 12");
    (("q2a", 75, "max_next"), "4 8 12 / 12");
    (("q2a", 75, "max_final"), "4 8 12 / 12");
    (("q2b", 5, "fifo"), "10 11 12 / 12");
    (("q2b", 5, "current"), "4 8 12 / 12");
    (("q2b", 5, "max_next"), "4 8 12 / 12");
    (("q2b", 5, "max_final"), "4 8 12 / 12");
    (("q2b", 75, "fifo"), "10 11 12 / 12");
    (("q2b", 75, "current"), "4 8 12 / 12");
    (("q2b", 75, "max_next"), "4 8 12 / 12");
    (("q2b", 75, "max_final"), "4 8 12 / 12");
    (("q2c", 5, "fifo"), "8*2 9 / 9");
    (("q2c", 5, "current"), "6*2 9 / 9");
    (("q2c", 5, "max_next"), "6*2 9 / 9");
    (("q2c", 5, "max_final"), "6*2 9 / 9");
    (("q2c", 75, "fifo"), "8*2 9 / 9");
    (("q2c", 75, "current"), "6*2 9 / 9");
    (("q2c", 75, "max_next"), "6*2 9 / 9");
    (("q2c", 75, "max_final"), "6*2 9 / 9");
    (("q2d", 5, "fifo"), "3*3 / 3");
    (("q2d", 5, "current"), "3*3 / 3");
    (("q2d", 5, "max_next"), "3*3 / 3");
    (("q2d", 5, "max_final"), "3*3 / 3");
    (("q2d", 75, "fifo"), "3*3 / 3");
    (("q2d", 75, "current"), "3*3 / 3");
    (("q2d", 75, "max_next"), "3*3 / 3");
    (("q2d", 75, "max_final"), "3*3 / 3");
    (("q1", 5, "fifo"), "213*5 / 213");
    (("q1", 5, "current"), "127*5 / 128");
    (("q1", 5, "max_next"), "127*5 / 128");
    (("q1", 5, "max_final"), "10*5 / 10");
    (("q1", 75, "fifo"), "233*75 / 233");
    (("q1", 75, "current"), "217*75 / 218");
    (("q1", 75, "max_next"), "217*75 / 218");
    (("q1", 75, "max_final"), "150*75 / 150");
    (("q2", 5, "fifo"), "887*5 / 887");
    (("q2", 5, "current"), "174*5 / 177");
    (("q2", 5, "max_next"), "174*5 / 177");
    (("q2", 5, "max_final"), "43*5 / 43");
    (("q2", 75, "fifo"), "1172*52 1192*23 / 1192");
    (("q2", 75, "current"), "814*52 817*23 / 819");
    (("q2", 75, "max_next"), "814*52 817*23 / 819");
    (("q2", 75, "max_final"), "428*52 614*23 / 615");
    (("q3", 5, "fifo"), "2779*5 / 2779");
    (("q3", 5, "current"), "293*5 / 293");
    (("q3", 5, "max_next"), "293*5 / 293");
    (("q3", 5, "max_final"), "51*5 / 82");
    (("q3", 75, "fifo"), "4185*75 / 4185");
    (("q3", 75, "current"), "1716*75 / 1728");
    (("q3", 75, "max_next"), "1716*75 / 1728");
    (("q3", 75, "max_final"), "248*24 354*6 464*7 666*19 689 697 710 720 824*4 857*2 899*4 924 939 948 951 966 / 967");
  ]

let test_stream_emission_timing () =
  List.iter
    (fun (name, idx, q) ->
      let plan = Whirlpool.Run.compile (Lazy.force idx) (Fixtures.parse q) in
      List.iter
        (fun k ->
          List.iter
            (fun (pname, policy) ->
              Alcotest.(check string)
                (Printf.sprintf "%s k=%d %s" name k pname)
                (List.assoc (name, k, pname) timing_goldens)
                (emission_timing plan ~policy ~k))
            timing_policies)
        [ 5; 75 ])
    timing_queries

(* --- the server: sockets end to end --- *)

(* One loadgen point end to end against an in-process event server:
   each window's accounting adds up with no errors, its percentiles are
   ordered, and the streamed TTFA probe sees its first answer before
   the run completes. *)
let test_loadgen_measure () =
  with_corpus_dir (fun dir ->
      let socket = temp_socket () in
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      let server, thread = start_event_server ~socket ~service () in
      let m =
        Fun.protect
          ~finally:(fun () ->
            Event.request_stop server;
            Thread.join thread)
          (fun () ->
            match
              Loadgen.measure ~ttfa_query:"/book[./title]" ~socket
                ~queries:[ "/book[./title]"; "/book[./isbn]" ]
                ~clients:2 ~duration_s:0.2 ()
            with
            | Ok m -> m
            | Error e -> Alcotest.failf "measure: %s" e)
      in
      List.iter
        (fun (w, (p : Loadgen.point)) ->
          Alcotest.(check int) (w ^ ": no errors") 0 p.errors;
          Alcotest.(check int)
            (w ^ ": requests = ok + partial + overloaded + errors")
            p.requests
            (p.ok + p.partial + p.overloaded + p.errors);
          Alcotest.(check bool) (w ^ ": p50 <= p95 <= p99 <= max") true
            (p.p50_ms <= p.p95_ms && p.p95_ms <= p.p99_ms
           && p.p99_ms <= p.max_ms);
          Alcotest.(check bool) (w ^ ": throughput > 0") true
            (p.throughput > 0.0))
        [ ("cold", m.cold); ("warm", m.warm) ];
      let ttfa key = Option.bind m.ttfa (Json.member key) in
      (match ttfa "streamed" with
      | Some (Json.Int n) ->
          Alcotest.(check bool) "ttfa probe streamed an answer" true (n >= 1)
      | _ -> Alcotest.fail "ttfa report lacks streamed");
      Alcotest.(check bool) "first answer before done" true
        (ttfa "ttfa_before_done" = Some (Json.Bool true));
      Alcotest.(check bool) "server metrics snapshot" true
        (Json.member "plan_cache" m.server_metrics <> None))

let test_event_end_to_end () =
  with_corpus_dir (fun dir ->
      let socket = temp_socket () in
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      let _server, thread = start_event_server ~socket ~service () in
      let client = connect_exn socket in
      (* The benchmark harness connects with an explicit version, which
         the client ignores: its control operations are answered as on
         any connection (its Stop ends this test). *)
      let perfbench_version = 1 in
      let pinned = connect_exn ~version:perfbench_version socket in
      (let r = call_exn pinned (Protocol.Ping { id = 1 }) in
       Alcotest.(check bool) "pinned ping ok" true (r.status = Protocol.Ok));
      (let r =
         call_exn pinned
           (Protocol.Metrics { id = 1; format = Protocol.Json_format })
       in
       Alcotest.(check bool) "pinned metrics snapshot" true
         (r.status = Protocol.Ok && r.metrics <> None));
      (let r = call_exn client (Protocol.Ping { id = 1 }) in
       Alcotest.(check bool) "ping ok" true (r.status = Protocol.Ok));
      (* Single-document query: Part frames stream a prefix of the Done
         reply's answers (a complete run streams all of them). *)
      let parts = ref [] in
      (match
         Client.stream client
           ~on_part:(fun a -> parts := a :: !parts)
           (Protocol.Query (query 2 ~doc:"a.xml" ~k:3 "/book[./title]"))
       with
      | Error e -> Alcotest.failf "stream: %s" (Client.error_to_string e)
      | Ok r ->
          Alcotest.(check bool) "query ok" true (r.status = Protocol.Ok);
          Alcotest.(check bool) "has answers" true (r.answers <> []);
          Alcotest.(check bool) "has stats" true (r.stats <> None);
          let key (a : Protocol.answer) = (a.doc, a.root, a.score) in
          Alcotest.(check bool)
            "streamed parts equal the Done answers" true
            (List.rev_map key !parts = List.map key r.answers));
      (* Merged (multi-document) queries buffer — merge can displace —
         so no Part frames, but the Done reply is complete. *)
      let mparts = ref 0 in
      (match
         Client.stream client
           ~on_part:(fun _ -> incr mparts)
           (Protocol.Query (query 3 ~k:5 "/book[./isbn]"))
       with
      | Error e -> Alcotest.failf "merged stream: %s" (Client.error_to_string e)
      | Ok r ->
          Alcotest.(check bool) "merged ok" true (r.status = Protocol.Ok);
          Alcotest.(check int) "merged queries do not stream" 0 !mparts;
          Alcotest.(check bool) "merged has answers" true (r.answers <> []));
      (* The service recorded a time-to-first-answer sample for the
         streamed run. *)
      (let r =
         call_exn client
           (Protocol.Metrics { id = 4; format = Protocol.Json_format })
       in
       match r.metrics with
       | None -> Alcotest.fail "metrics reply lacks snapshot"
       | Some snap -> (
           match Json.member "ttfa_ms" snap with
           | Some ttfa -> (
               match Json.member "samples" ttfa with
               | Some (Json.Int n) ->
                   Alcotest.(check bool) "ttfa sampled" true (n >= 1)
               | _ -> Alcotest.fail "ttfa_ms lacks samples")
           | None -> Alcotest.fail "metrics lack ttfa_ms"));
      (let r =
         call_exn client
           (Protocol.Metrics { id = 6; format = Protocol.Prometheus })
       in
       match r.metrics_text with
       | Some page -> (
           match Wp_obs.Registry.validate_exposition page with
           | Ok () ->
               Alcotest.(check bool) "request counted in exposition" true
                 (Test_stats.contains ~needle:"wp_serve_requests_total" page)
           | Error m -> Alcotest.failf "invalid exposition: %s" m)
       | None -> Alcotest.fail "prometheus reply lacks metrics_text");
      (* A malformed frame — not JSON, or an op the protocol does not
         have, such as the removed "hello" — gets a bad_request Done
         frame; the server survives. *)
      (let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> try Unix.close raw with Unix.Unix_error _ -> ())
         (fun () ->
           Unix.connect raw (Unix.ADDR_UNIX socket);
           List.iter
             (fun bad ->
               (match Wire.write_frame raw bad with
               | Ok () -> ()
               | Error e -> Alcotest.failf "raw write: %s" e);
               match Wire.read_frame raw with
               | Ok reply -> (
                   match Protocol.parse_frame reply with
                   | Ok (Protocol.Done r) ->
                       Alcotest.(check bool) (bad ^ " -> error reply") true
                         (r.status = Protocol.Error);
                       Alcotest.(check bool) (bad ^ " -> bad_request") true
                         (r.code = Some Protocol.Bad_request)
                   | Ok (Protocol.Part _) ->
                       Alcotest.failf "%s answered with a Part" bad
                   | Error e -> Alcotest.failf "error reply unparsable: %s" e)
               | Error e -> Alcotest.failf "raw read: %s" e)
             [ "this is not json"; {|{"op":"hello","id":0,"version":2}|} ]));
      (let r = call_exn client (Protocol.Ping { id = 7 }) in
       Alcotest.(check bool) "alive after bad frames" true
         (r.status = Protocol.Ok));
      (let r = call_exn pinned (Protocol.Stop { id = 5 }) in
       Alcotest.(check bool) "pinned stop acked" true
         (r.status = Protocol.Ok));
      Client.close pinned;
      Client.close client;
      Thread.join thread;
      Alcotest.(check bool) "socket removed" false (Sys.file_exists socket))

(* A bare Wire connection that never sends anything but its query gets
   the streamed reply: Part frames, numbered from 0, ahead of a Done
   whose answers they prefix. *)
let test_event_streams_without_hello () =
  with_corpus_dir (fun dir ->
      let socket = temp_socket () in
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      let server, thread = start_event_server ~socket ~service () in
      let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close raw with Unix.Unix_error _ -> ());
          Event.request_stop server;
          Thread.join thread)
        (fun () ->
          Unix.connect raw (Unix.ADDR_UNIX socket);
          Unix.setsockopt_float raw Unix.SO_RCVTIMEO 10.0;
          let payload =
            Json.to_string
              (Protocol.request_to_json
                 (Protocol.Query (query 1 ~doc:"a.xml" ~k:3 "/book[./title]")))
          in
          (match Wire.write_frame raw payload with
          | Ok () -> ()
          | Error e -> Alcotest.failf "raw write: %s" e);
          let rec frames parts =
            match Wire.read_frame raw with
            | Error e -> Alcotest.failf "raw read: %s" e
            | Ok text -> (
                match Protocol.parse_frame text with
                | Error e -> Alcotest.failf "unparsable frame: %s" e
                | Ok (Protocol.Part { id; seq; answer }) ->
                    Alcotest.(check int) "part echoes the id" 1 id;
                    Alcotest.(check int) "parts count from 0"
                      (List.length parts) seq;
                    frames (answer :: parts)
                | Ok (Protocol.Done r) -> (List.rev parts, r))
          in
          let parts, r = frames [] in
          Alcotest.(check bool) "query ok" true (r.status = Protocol.Ok);
          Alcotest.(check bool) "parts before done" true (parts <> []);
          Alcotest.(check bool) "parts prefix the done answers" true
            (List.filteri (fun i _ -> i < List.length parts) r.answers
            = parts)))

let test_event_deadline_mid_stream () =
  with_corpus_dir (fun dir ->
      let socket = temp_socket () in
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      let _server, thread = start_event_server ~socket ~service () in
      let client = connect_exn socket in
      let parts = ref [] in
      (match
         Client.stream client
           ~on_part:(fun a -> parts := a :: !parts)
           (Protocol.Query
              (query 1 ~doc:"a.xml" ~deadline_ms:0.0 "/book[./title]"))
       with
      | Error e -> Alcotest.failf "stream: %s" (Client.error_to_string e)
      | Ok r ->
          (* Expiry mid-stream: the reply is flagged partial and the
             already-streamed prefix is never retracted — every Part
             appears, in order, at the head of the Done answers. *)
          Alcotest.(check bool) "partial after stream" true
            (r.status = Protocol.Partial);
          let key (a : Protocol.answer) = (a.doc, a.root, a.score) in
          let rec prefix xs ys =
            match (xs, ys) with
            | [], _ -> true
            | x :: xs', y :: ys' -> x = y && prefix xs' ys'
            | _ :: _, [] -> false
          in
          Alcotest.(check bool) "streamed prefix kept" true
            (prefix (List.rev_map key !parts) (List.map key r.answers)));
      ignore (Client.call client (Protocol.Stop { id = 2 }));
      Client.close client;
      Thread.join thread)

(* Frames pipelined into one write are all answered, in order, and a
   frame split across two writes is reassembled from the kept tail. *)
let test_event_pipelined_frames () =
  with_corpus_dir (fun dir ->
      let socket = temp_socket () in
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      let server, thread = start_event_server ~socket ~service () in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Event.request_stop server;
          Thread.join thread)
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          let frames = 40 in
          let bytes =
            String.concat ""
              (List.init frames (fun i ->
                   Wire.frame
                     (Json.to_string
                        (Protocol.request_to_json
                           (Protocol.Ping { id = i + 1 })))))
          in
          let split = String.length bytes - 3 in
          let send s =
            let n = Unix.write_substring fd s 0 (String.length s) in
            Alcotest.(check int) "whole write" (String.length s) n
          in
          send (String.sub bytes 0 split);
          send (String.sub bytes split 3);
          for i = 1 to frames do
            match Wire.read_frame fd with
            | Error e -> Alcotest.failf "reply %d: %s" i e
            | Ok reply -> (
                match Protocol.parse_response reply with
                | Error e -> Alcotest.failf "reply %d unparsable: %s" i e
                | Ok r ->
                    Alcotest.(check int) "replies in request order" i r.id;
                    Alcotest.(check bool) "ping ok" true
                      (r.status = Protocol.Ok))
          done))

(* Abnormal disconnect: a client that vanishes mid-query must not leak
   its socket or connection slot, and the in-flight run is cancelled. *)
let test_event_killed_client_reclaims () =
  with_xmark_corpus_dir 1 (fun dir ->
      let socket = temp_socket () in
      let service = service_with dir in
      let server, thread = start_event_server ~socket ~service () in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let payload =
        Json.to_string
          (Protocol.request_to_json
             (Protocol.Query
                (query 1 ~k:50 "//item[./name and ./incategory]")))
      in
      (match Wire.write_frame fd payload with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" e);
      (* Vanish without reading the reply. *)
      Unix.close fd;
      let rec await tries =
        let n = Event.conn_count server in
        if n = 0 then ()
        else if tries = 0 then
          Alcotest.failf "connection slot leaked (%d still held)" n
        else begin
          Thread.delay 0.05;
          await (tries - 1)
        end
      in
      await 200;
      (* The slot came back and the server still serves. *)
      let client = connect_exn socket in
      let r = call_exn client (Protocol.Ping { id = 9 }) in
      Alcotest.(check bool) "still serving after kill" true
        (r.status = Protocol.Ok);
      ignore (Client.call client (Protocol.Stop { id = 10 }));
      Client.close client;
      Thread.join thread)

(* --- HTTP gateway on the event loop --- *)

(* A head carrying [Expect: 100-continue], sent without its body: the
   interim [100 Continue] must arrive within 2 s, and once the body
   follows, the final 200. *)
let check_expect_continue ~port =
  let body = "{\"query\":\"/book[./title]\",\"k\":3}" in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let send text =
        let (_ : int) = Unix.write_substring fd text 0 (String.length text) in
        ()
      in
      let chunk = Bytes.create 4096 in
      (* Read until [stop] holds of what arrived, EOF, or the timeout. *)
      let read_until ~timeout stop =
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
        let buf = Buffer.create 256 in
        let rec go () =
          if not (stop (Buffer.contents buf)) then
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                go ()
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                ()
        in
        go ();
        Buffer.contents buf
      in
      send
        (Printf.sprintf
           "POST /query HTTP/1.1\r\nHost: localhost\r\nContent-Length: \
            %d\r\nExpect: 100-Continue\r\nConnection: close\r\n\r\n"
           (String.length body));
      let interim = "HTTP/1.1 100 Continue\r\n\r\n" in
      let got =
        read_until ~timeout:2.0 (fun s ->
            String.length s >= String.length interim)
      in
      Alcotest.(check string) "100 Continue before the body" interim got;
      send body;
      let final = read_until ~timeout:10.0 (fun _ -> false) in
      Alcotest.(check bool) "200 after the body" true
        (String.starts_with ~prefix:"HTTP/1.1 200" final))

let test_http_gateway () =
  with_corpus_dir (fun dir ->
      let socket = temp_socket () in
      let service = Service.create ~catalog:(loaded_catalog dir) () in
      let server, thread =
        start_event_server ~http:0 ~socket ~service ()
      in
      let port =
        match Event.http_port server with
        | Some p -> p
        | None -> Alcotest.fail "no http port bound"
      in
      (let status, body = http_request ~port ~meth:"GET" ~path:"/healthz" () in
       Alcotest.(check (option int)) "healthz 200" (Some 200) status;
       Alcotest.(check string) "healthz body" "ok\n" body);
      (let status, body =
         http_request ~port ~meth:"POST" ~path:"/query"
           ~body:"{\"query\":\"/book[./title]\",\"k\":3}" ()
       in
       Alcotest.(check (option int)) "query 200" (Some 200) status;
       match Json.of_string body with
       | Error e -> Alcotest.failf "query reply not json: %s" e
       | Ok j -> (
           match Protocol.response_of_json j with
           | Error e -> Alcotest.failf "query reply not a response: %s" e
           | Ok r ->
               Alcotest.(check bool) "http query ok" true
                 (r.status = Protocol.Ok);
               Alcotest.(check bool) "http query has answers" true
                 (r.answers <> [])));
      (let status, body = http_request ~port ~meth:"GET" ~path:"/metrics" () in
       Alcotest.(check (option int)) "metrics 200" (Some 200) status;
       (match Wp_obs.Registry.validate_exposition body with
       | Ok () -> ()
       | Error m -> Alcotest.failf "invalid exposition over http: %s" m);
       Alcotest.(check bool) "request counted" true
         (Test_stats.contains ~needle:"wp_serve_requests_total" body));
      (let status, body =
         http_request ~port ~meth:"GET" ~path:"/metrics.json" ()
       in
       Alcotest.(check (option int)) "metrics.json 200" (Some 200) status;
       match Json.of_string body with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "metrics.json not json: %s" e);
      (let status, _ = http_request ~port ~meth:"GET" ~path:"/warp" () in
       Alcotest.(check (option int)) "404 on unknown route" (Some 404) status);
      (let status, _ =
         http_request ~port ~meth:"POST" ~path:"/query" ~body:"not json" ()
       in
       Alcotest.(check (option int)) "400 on bad body" (Some 400) status);
      (* A body past the wire cap is refused on its declared length,
         before any of it is sent. *)
      (let status, _ =
         http_request ~port ~meth:"POST" ~path:"/query"
           ~content_length:"99999999999" ()
       in
       Alcotest.(check (option int)) "413 on oversized Content-Length"
         (Some 413) status);
      check_expect_continue ~port;
      (* A length that is not a plain decimal is a bad request, not 0. *)
      List.iter
        (fun (meth, path, content_length) ->
          let status, body =
            http_request ~port ~meth ~path ~content_length ()
          in
          Alcotest.(check (option int))
            (Printf.sprintf "400 on Content-Length %S" content_length)
            (Some 400) status;
          Alcotest.(check bool) "error names Content-Length" true
            (Test_stats.contains ~needle:"Content-Length" body))
        [ ("POST", "/query", "abc"); ("GET", "/healthz", "-1") ];
      (* A removed request knob is a typed bad_request over HTTP too. *)
      (let status, body =
         http_request ~port ~meth:"POST" ~path:"/query"
           ~body:"{\"query\":\"/book\",\"batch\":4}" ()
       in
       Alcotest.(check (option int)) "400 on batch" (Some 400) status;
       Alcotest.(check bool) "names batch" true
         (Test_stats.contains ~needle:"batch" body));
      (* Wire and HTTP share one loop: stop over the wire ends both. *)
      let client = connect_exn socket in
      ignore (Client.call client (Protocol.Stop { id = 1 }));
      Client.close client;
      Thread.join thread)

let suite =
  [
    Alcotest.test_case "lru basics" `Quick test_lru_basics;
    Alcotest.test_case "lru find_or_add" `Quick test_lru_find_or_add;
    Alcotest.test_case "lru hit rate" `Quick test_lru_hit_rate;
    Alcotest.test_case "lru filter" `Quick test_lru_filter;
    Alcotest.test_case "protocol request roundtrip" `Quick
      test_protocol_request_roundtrip;
    Alcotest.test_case "protocol response roundtrip" `Quick
      test_protocol_response_roundtrip;
    Alcotest.test_case "protocol rejects" `Quick test_protocol_rejects;
    Alcotest.test_case "error codes roundtrip" `Quick
      test_error_codes_roundtrip;
    Alcotest.test_case "catalog load dir" `Quick test_catalog_load_dir;
    Alcotest.test_case "catalog load errors" `Quick test_catalog_load_errors;
    Alcotest.test_case "catalog plan cache" `Quick test_catalog_plan_cache;
    Alcotest.test_case "catalog reload drops plans" `Quick
      test_catalog_reload_drops_plans;
    Alcotest.test_case "twig after reload" `Quick test_twig_after_reload;
    Alcotest.test_case "concurrent component-table fills" `Quick
      test_concurrent_memo_fills;
    Alcotest.test_case "concurrent first twig queries" `Quick
      test_concurrent_first_twig;
    Alcotest.test_case "concurrent plan compiles" `Quick
      test_concurrent_plan_for;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "metrics zero requests finite" `Quick
      test_metrics_zero_requests_finite;
    Alcotest.test_case "metrics counts" `Quick test_metrics_counts;
    Alcotest.test_case "engine should_stop" `Quick test_engine_should_stop;
    Alcotest.test_case "backend should_stop" `Quick test_backend_should_stop;
    Alcotest.test_case "service matches engine" `Quick
      test_service_matches_engine;
    Alcotest.test_case "service expired deadline partial" `Quick
      test_service_expired_deadline_partial;
    Alcotest.test_case "service merged corpus" `Quick
      test_service_merged_corpus;
    Alcotest.test_case "use_cache rejected" `Quick test_use_cache_rejected;
    Alcotest.test_case "batch rejected" `Quick test_batch_rejected;
    Alcotest.test_case "bound_push rejected" `Quick test_bound_push_rejected;
    Alcotest.test_case "service deadline range" `Quick
      test_service_deadline_range;
    Alcotest.test_case "merged mapped corpus" `Quick
      test_merged_mapped_corpus;
    QCheck_alcotest.to_alcotest prop_merged_equals_reference;
    Alcotest.test_case "merged skip: equal bounds" `Quick
      test_merged_skip_equal_bounds;
    Alcotest.test_case "merged skip: lower bound" `Quick
      test_merged_skip_lower_bound;
    Alcotest.test_case "merged tie: earlier name runs" `Quick
      test_merged_tie_earlier_name_runs;
    Alcotest.test_case "merged expired deadline partial" `Quick
      test_merged_expired_deadline_partial;
    Alcotest.test_case "mapped equal-size docs" `Quick
      test_mapped_equal_size_docs;
    Alcotest.test_case "service errors" `Quick test_service_errors;
    Alcotest.test_case "service metrics json" `Quick
      test_service_metrics_json;
    Alcotest.test_case "service prometheus" `Quick test_service_prometheus;
    Alcotest.test_case "slow query log" `Quick test_slow_query_log;
    Alcotest.test_case "pool sheds when full" `Quick test_pool_sheds_when_full;
    Alcotest.test_case "pool runs jobs" `Quick test_pool_runs_jobs;
    Alcotest.test_case "spawn rejects an empty pool" `Quick
      test_spawn_rejects_empty_pool;
    Alcotest.test_case "wire frame roundtrip" `Quick test_wire_frame_roundtrip;
    Alcotest.test_case "wire deadline over socket" `Quick
      test_wire_deadline_over_socket;
    Alcotest.test_case "lint rejection served" `Quick test_lint_rejected_served;
    Alcotest.test_case "algo axis over the service" `Quick
      test_service_algo_backends;
    Alcotest.test_case "algo axis over the wire" `Quick test_algo_over_wire;
    Alcotest.test_case "protocol v2 codec" `Quick test_protocol_v2_codec;
    Alcotest.test_case "stream prefix matches final" `Quick
      test_stream_prefix_matches_final;
    Alcotest.test_case "stream partial run prefix only" `Quick
      test_stream_partial_run_emits_prefix_only;
    Alcotest.test_case "stream emission timing" `Quick
      test_stream_emission_timing;
    Alcotest.test_case "event tier end to end" `Quick test_event_end_to_end;
    Alcotest.test_case "event streams without hello" `Quick
      test_event_streams_without_hello;
    Alcotest.test_case "loadgen point" `Quick test_loadgen_measure;
    Alcotest.test_case "event deadline mid-stream" `Quick
      test_event_deadline_mid_stream;
    Alcotest.test_case "event killed client reclaims" `Quick
      test_event_killed_client_reclaims;
    Alcotest.test_case "event pipelined frames" `Quick
      test_event_pipelined_frames;
    Alcotest.test_case "http gateway" `Quick test_http_gateway;
  ]
