open Whirlpool

let idx = Lazy.force Fixtures.xmark_index
let books = Fixtures.books_index
let parse = Fixtures.parse

let test_books_topk_order () =
  (* Relaxed q2a on the Figure 1 books: book (a) matches everything
     exactly, (b) approximately, (c) only the title (relaxed) — the
     ranking must follow. *)
  let plan =
    Run.compile ~normalization:Wp_score.Score_table.Raw books (parse Fixtures.q2a)
  in
  let r = Engine.run plan ~k:3 in
  let a, b, c =
    match Fixtures.book_roots with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  Alcotest.(check (list int)) "ranking a > b > c" [ a; b; c ]
    (List.map (fun (e : Topk_set.entry) -> e.root) r.answers);
  match r.answers with
  | [ ea; eb; ec ] ->
      Alcotest.(check bool) "scores strictly ordered" true
        (ea.score > eb.score && eb.score > ec.score)
  | _ -> Alcotest.fail "expected three answers"

let test_books_score_equals_tfidf () =
  (* For a root whose best match is fully exact with tf = 1 on every
     component, the engine's tuple score coincides with Definition
     4.4. *)
  let pat = parse Fixtures.q2a in
  let plan = Run.compile ~normalization:Wp_score.Score_table.Raw books pat in
  let r = Engine.run plan ~k:1 in
  let comps = Wp_score.Component.of_pattern ~doc_root_tag:"bib" pat in
  match r.answers with
  | [ e ] ->
      Alcotest.(check (float 1e-9)) "engine score = tf*idf score"
        (Wp_score.Tfidf.score books comps ~root:e.root)
        e.score
  | _ -> Alcotest.fail "expected one answer"

(* Ground truth for exact semantics: with Sparse weights every exact
   binding earns 1, so every exact match of an n-node query scores n and
   the top-k is any k exact-matching roots. *)
let exact_reference pat = Wp_pattern.Matcher.matching_roots idx pat

let test_exact_mode_agrees_with_matcher () =
  List.iter
    (fun q ->
      let pat = parse q in
      let plan =
        Run.compile ~config:Wp_relax.Relaxation.exact
          ~normalization:Wp_score.Score_table.Sparse idx pat
      in
      let k = 5 in
      let r = Engine.run plan ~k in
      let expected_roots = exact_reference pat in
      let expected_count = min k (List.length expected_roots) in
      Alcotest.(check int) (q ^ ": answer count") expected_count
        (List.length r.answers);
      List.iter
        (fun (e : Topk_set.entry) ->
          Alcotest.(check bool) (q ^ ": answer is an exact match") true
            (List.mem e.root expected_roots);
          Alcotest.(check (float 1e-9)) (q ^ ": full score")
            (float_of_int (Wp_pattern.Pattern.size pat))
            e.score)
        r.answers)
    [ Fixtures.q1; Fixtures.q2; Fixtures.q3 ]

let all_algorithms =
  Engine.Config.[ Whirlpool; Whirlpool_mt; Lockstep; Lockstep_noprun ]

let test_algorithms_agree_on_scores () =
  List.iter
    (fun q ->
      let plan = Run.compile idx (parse q) in
      let k = 10 in
      let reference =
        Fixtures.sorted_scores
          (Fixtures.run_algo Engine.Config.Lockstep_noprun plan ~k).answers
      in
      List.iter
        (fun algo ->
          let r = Fixtures.run_algo algo plan ~k in
          Fixtures.check_scores_equal
            ~msg:(Printf.sprintf "%s on %s" q (Engine.Config.algo_to_string algo))
            reference
            (Fixtures.sorted_scores r.answers))
        all_algorithms)
    [ Fixtures.q1; Fixtures.q2; Fixtures.q3 ]

let test_routing_strategies_agree () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let reference = Fixtures.sorted_scores (Engine.run plan ~k:15).answers in
  List.iter
    (fun routing ->
      let r =
        Engine.run ~config:Engine.Config.(default |> with_routing routing)
          plan ~k:15
      in
      Fixtures.check_scores_equal
        ~msg:(Format.asprintf "routing %a" Strategy.pp_routing routing)
        reference
        (Fixtures.sorted_scores r.answers))
    [ Strategy.Max_score; Strategy.Min_score; Strategy.Min_alive;
      Strategy.Static (Strategy.default_static_order plan) ]

let test_queue_policies_agree () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let reference = Fixtures.sorted_scores (Engine.run plan ~k:15).answers in
  List.iter
    (fun queue_policy ->
      let r =
        Engine.run
          ~config:Engine.Config.(default |> with_queue_policy queue_policy)
          plan ~k:15
      in
      Fixtures.check_scores_equal
        ~msg:(Format.asprintf "queue %a" Strategy.pp_queue_policy queue_policy)
        reference
        (Fixtures.sorted_scores r.answers))
    [ Strategy.Fifo; Strategy.Current_score; Strategy.Max_next_score;
      Strategy.Max_final_score ]

let test_static_permutations_agree () =
  let plan = Run.compile idx (parse Fixtures.q1) in
  let reference = Fixtures.sorted_scores (Engine.run plan ~k:5).answers in
  List.iter
    (fun order ->
      let r =
        Engine.run
          ~config:
            Engine.Config.(default |> with_routing (Strategy.Static order))
          plan ~k:5
      in
      Fixtures.check_scores_equal ~msg:"static permutation" reference
        (Fixtures.sorted_scores r.answers))
    (Strategy.static_permutations plan)

let test_k_larger_than_answers () =
  let plan = Run.compile books (parse Fixtures.q2a) in
  let r = Engine.run plan ~k:50 in
  Alcotest.(check int) "only three books exist" 3 (List.length r.answers)

let test_k_one () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let r = Engine.run plan ~k:1 in
  Alcotest.(check int) "single answer" 1 (List.length r.answers);
  let noprun = Fixtures.run_algo Engine.Config.Lockstep_noprun plan ~k:1 in
  Fixtures.check_scores_equal ~msg:"k=1 matches baseline"
    (Fixtures.sorted_scores noprun.answers)
    (Fixtures.sorted_scores r.answers)

let test_pruning_reduces_work () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let pruned = Engine.run plan ~k:5 in
  let baseline = Fixtures.run_algo Engine.Config.Lockstep_noprun plan ~k:5 in
  Alcotest.(check bool) "fewer matches created than NoPrun" true
    (pruned.stats.matches_created < baseline.stats.matches_created);
  Alcotest.(check bool) "fewer server ops than NoPrun" true
    (pruned.stats.server_ops < baseline.stats.server_ops)

let test_growing_k_grows_work () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let r3 = Engine.run plan ~k:3 in
  let r75 = Engine.run plan ~k:75 in
  Alcotest.(check bool) "larger k prunes less" true
    (r75.stats.server_ops >= r3.stats.server_ops)

let test_single_node_query () =
  let plan = Run.compile idx (parse "//item") in
  let r = Engine.run plan ~k:4 in
  Alcotest.(check int) "four items" 4 (List.length r.answers);
  let m = Engine_mt.run plan ~k:4 in
  Alcotest.(check int) "multi-threaded too" 4 (List.length m.answers)

let test_no_matches () =
  let plan = Run.compile idx (parse "//nonexistent[./thing]") in
  let r = Engine.run plan ~k:5 in
  Alcotest.(check int) "no answers" 0 (List.length r.answers);
  let m = Engine_mt.run plan ~k:5 in
  Alcotest.(check int) "no answers (mt)" 0 (List.length m.answers)

let test_deterministic_runs () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let r1 = Engine.run plan ~k:10 and r2 = Engine.run plan ~k:10 in
  Alcotest.(check int) "same ops" r1.stats.server_ops r2.stats.server_ops;
  Alcotest.(check (list int)) "same roots"
    (List.map (fun (e : Topk_set.entry) -> e.root) r1.answers)
    (List.map (fun (e : Topk_set.entry) -> e.root) r2.answers)

(* Whirlpool-S's counters on Q2 at k=15 under the default config,
   pinned exactly: one routing decision per surviving pop, each traced
   as one [visit] span; of the 121 roots, only the 15 seeds popped
   before the threshold reached the remaining classes' bounds are
   built. *)
let test_default_counters () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let obs = Wp_obs.Obs.create () in
  let r = Engine.run ~config:Engine.Config.(default |> with_obs obs) plan ~k:15 in
  Alcotest.(check int) "routing_decisions" 75 r.stats.routing_decisions;
  Alcotest.(check int) "server_ops" 76 r.stats.server_ops;
  Alcotest.(check int) "matches_created" 343 r.stats.matches_created;
  Alcotest.(check int) "seeds_materialized" 15 r.stats.seeds_materialized;
  Alcotest.(check int) "matches_pruned" 161 r.stats.matches_pruned;
  Alcotest.(check int) "visit spans = routing decisions"
    r.stats.routing_decisions
    (List.length
       (List.filter
          (fun (s : Wp_obs.Obs.span_record) -> s.name = "visit")
          (Wp_obs.Obs.spans obs)))

(* Streaming certification must be nearly free: a streamed Whirlpool-S
   run allocates at most 1.25x the minor words of the same run without
   [on_certified].  A single-domain run's [Gc.minor_words] is
   deterministic. *)
let test_streaming_allocation_bound () =
  if not (Invariants.enabled ()) then
  let minor_words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  List.iter
    (fun q ->
      let plan = Run.compile idx (parse q) in
      List.iter
        (fun k ->
          let plain = Engine.Config.default in
          let streamed = ref 0 in
          let streaming =
            Engine.Config.with_on_certified (fun _ -> incr streamed) plain
          in
          let run config () =
            ignore (Engine.run ~config plan ~k : Engine.result)
          in
          run plain ();
          let base = minor_words (run plain) in
          let with_stream = minor_words (run streaming) in
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d streams answers" q k)
            true (!streamed > 0);
          if with_stream > 1.25 *. base then
            Alcotest.failf "%s k=%d: streamed %.0f words vs %.0f (%.2fx)" q k
              with_stream base (with_stream /. base))
        [ 10; 75 ])
    [ Fixtures.q1; Fixtures.q2; Fixtures.q3 ]

(* A default run builds no engine event: with observability disabled,
   the event sites are skipped before any record is allocated.  Minor
   words per created match, bounded at the measured value (x86-64,
   OCaml 5 without flambda) plus 3% headroom; building an event per
   site costs ~12-15% more on these runs and fails every row. *)
let test_default_run_allocates_no_events () =
  (* [WP_CHECK_INVARIANTS] debug checks allocate by design; the pins
     are for the default run. *)
  if not (Invariants.enabled ()) then
  let bounds =
    [
      ((Fixtures.q1, 10), 22.55); ((Fixtures.q1, 75), 64.02);
      ((Fixtures.q2, 10), 47.22); ((Fixtures.q2, 75), 84.42);
      ((Fixtures.q3, 10), 63.33); ((Fixtures.q3, 75), 87.17);
    ]
  in
  List.iter
    (fun ((q, k), measured) ->
      let plan = Run.compile idx (parse q) in
      let config = Engine.Config.default in
      ignore (Engine.run ~config plan ~k : Engine.result);
      let w0 = Gc.minor_words () in
      let r = Engine.run ~config plan ~k in
      let per_match =
        (Gc.minor_words () -. w0) /. float_of_int r.stats.matches_created
      in
      if per_match > 1.03 *. measured then
        Alcotest.failf "%s k=%d: %.2f minor words per match, bound %.2f" q k
          per_match (1.03 *. measured))
    bounds

let suite =
  [
    Alcotest.test_case "books ranking" `Quick test_books_topk_order;
    Alcotest.test_case "score = tf*idf on exact roots" `Quick test_books_score_equals_tfidf;
    Alcotest.test_case "exact mode vs matcher" `Quick test_exact_mode_agrees_with_matcher;
    Alcotest.test_case "algorithms agree" `Quick test_algorithms_agree_on_scores;
    Alcotest.test_case "routing strategies agree" `Quick test_routing_strategies_agree;
    Alcotest.test_case "queue policies agree" `Quick test_queue_policies_agree;
    Alcotest.test_case "static permutations agree" `Quick test_static_permutations_agree;
    Alcotest.test_case "k > answers" `Quick test_k_larger_than_answers;
    Alcotest.test_case "k = 1" `Quick test_k_one;
    Alcotest.test_case "pruning reduces work" `Quick test_pruning_reduces_work;
    Alcotest.test_case "k grows work" `Quick test_growing_k_grows_work;
    Alcotest.test_case "single-node query" `Quick test_single_node_query;
    Alcotest.test_case "no matches" `Quick test_no_matches;
    Alcotest.test_case "deterministic" `Quick test_deterministic_runs;
    Alcotest.test_case "Q2 default counters" `Quick test_default_counters;
    Alcotest.test_case "streaming allocation bound" `Quick
      test_streaming_allocation_bound;
    Alcotest.test_case "default run allocates no events" `Quick
      test_default_run_allocates_no_events;
  ]
