open Whirlpool

let idx = Lazy.force Fixtures.xmark_index
let parse = Fixtures.parse

let test_order_validation () =
  let plan = Run.compile idx (parse Fixtures.q1) in
  Alcotest.check_raises "short order rejected"
    (Invalid_argument "Lockstep.run: order must cover every non-root server")
    (fun () -> ignore (Lockstep.run ~order:[| 1 |] plan ~k:3))

let test_orders_agree () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let reference = Fixtures.sorted_scores (Lockstep.run plan ~k:10).answers in
  List.iter
    (fun order ->
      let r = Lockstep.run ~order plan ~k:10 in
      Fixtures.check_scores_equal ~msg:"lockstep permutation" reference
        (Fixtures.sorted_scores r.answers))
    [ [| 5; 4; 3; 2; 1 |]; [| 2; 4; 1; 5; 3 |]; [| 1; 2; 3; 4; 5 |] ]

let test_noprun_counts_everything () =
  let plan = Run.compile idx (parse Fixtures.q1) in
  let noprun = Lockstep.run ~prune:false plan ~k:3 in
  Alcotest.(check int) "nothing pruned" 0 noprun.stats.matches_pruned;
  (* Every root candidate survives outer-join semantics to completion. *)
  let roots = Array.length plan.Plan.roots in
  Alcotest.(check bool) "at least one complete match per root" true
    (noprun.stats.completed >= roots)

let test_noprun_total_matches_is_upper_bound () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let noprun = Lockstep.run ~prune:false plan ~k:15 in
  List.iter
    (fun order ->
      let pruned = Lockstep.run ~order plan ~k:15 in
      Alcotest.(check bool) "pruning never creates more matches" true
        (pruned.stats.matches_created <= noprun.stats.matches_created))
    [ [| 1; 2; 3; 4; 5 |]; [| 5; 4; 3; 2; 1 |] ]

let test_lockstep_vs_engine_workload () =
  (* The paper's central claim (Figures 6/7): adaptive per-match
     processing does not do more server operations than the best
     lock-step execution, and the no-pruning variant is worst. *)
  let plan = Run.compile idx (parse Fixtures.q2) in
  let adaptive = Engine.run plan ~k:15 in
  let lockstep = Lockstep.run plan ~k:15 in
  let noprun = Lockstep.run ~prune:false plan ~k:15 in
  Alcotest.(check bool) "lockstep <= noprun ops" true
    (lockstep.stats.server_ops <= noprun.stats.server_ops);
  Alcotest.(check bool) "adaptive <= noprun ops" true
    (adaptive.stats.server_ops <= noprun.stats.server_ops)

let test_stage_sequencing () =
  (* In LockStep every alive match visits servers in stage order, so the
     visited masks at completion are identical across matches. *)
  let plan = Run.compile idx (parse Fixtures.q1) in
  let r = Lockstep.run ~order:[| 2; 1 |] plan ~k:100 in
  List.iter
    (fun (e : Topk_set.entry) ->
      Alcotest.(check int) "all bindings decided" (Wp_pattern.Pattern.size plan.pattern)
        (Array.length e.bindings))
    r.answers

let suite =
  [
    Alcotest.test_case "order validation" `Quick test_order_validation;
    Alcotest.test_case "orders agree" `Quick test_orders_agree;
    Alcotest.test_case "noprun counts everything" `Quick test_noprun_counts_everything;
    Alcotest.test_case "noprun is an upper bound" `Quick test_noprun_total_matches_is_upper_bound;
    Alcotest.test_case "workload ordering" `Quick test_lockstep_vs_engine_workload;
    Alcotest.test_case "stage sequencing" `Quick test_stage_sequencing;
  ]
