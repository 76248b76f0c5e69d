open Whirlpool

let idx = Lazy.force Fixtures.xmark_index
let parse = Fixtures.parse

let test_matches_single_threaded_answers () =
  List.iter
    (fun q ->
      let plan = Run.compile idx (parse q) in
      let s = Engine.run plan ~k:10 in
      let m = Engine_mt.run plan ~k:10 in
      Fixtures.check_scores_equal ~msg:("W-M = W-S scores on " ^ q)
        (Fixtures.sorted_scores s.answers)
        (Fixtures.sorted_scores m.answers))
    [ Fixtures.q1; Fixtures.q2; Fixtures.q3 ]

let test_exact_mode () =
  let plan =
    Run.compile ~config:Wp_relax.Relaxation.exact idx (parse Fixtures.q2)
  in
  let s = Engine.run plan ~k:5 in
  let m = Engine_mt.run plan ~k:5 in
  Fixtures.check_scores_equal ~msg:"exact W-M = W-S"
    (Fixtures.sorted_scores s.answers)
    (Fixtures.sorted_scores m.answers)

(* The repeated-run coordination stress lives in the @slow suite
   (test/slow/test_mt_stress.ml): under adverse schedules it dominates
   the wall clock. *)

let test_stats_are_merged () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let m = Engine_mt.run plan ~k:10 in
  Alcotest.(check bool) "ops recorded" true (m.stats.server_ops > 0);
  Alcotest.(check bool) "routing recorded" true (m.stats.routing_decisions > 0);
  Alcotest.(check bool) "matches created" true (m.stats.matches_created > 0);
  Alcotest.(check bool) "wall time measured" true
    (Stats.wall_seconds m.stats > 0.0)

let test_routing_strategies () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let reference = Fixtures.sorted_scores (Engine.run plan ~k:10).answers in
  List.iter
    (fun routing ->
      let m =
        Engine_mt.run
          ~config:Engine.Config.(default |> with_routing routing)
          plan ~k:10
      in
      Fixtures.check_scores_equal
        ~msg:(Format.asprintf "W-M routing %a" Strategy.pp_routing routing)
        reference
        (Fixtures.sorted_scores m.answers))
    [ Strategy.Max_score; Strategy.Min_score;
      Strategy.Static (Strategy.default_static_order plan) ]

let suite =
  [
    Alcotest.test_case "answers match W-S" `Quick test_matches_single_threaded_answers;
    Alcotest.test_case "exact mode" `Quick test_exact_mode;
    Alcotest.test_case "stats merged" `Quick test_stats_are_merged;
    Alcotest.test_case "routing strategies" `Quick test_routing_strategies;
  ]
