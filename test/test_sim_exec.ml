open Whirlpool

let idx = Lazy.force Fixtures.xmark_index
let parse = Fixtures.parse
let costs = { Sim_exec.op_cost = 1e-3; route_cost = 1e-5 }

let test_sequential_pricing () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let r = Sim_exec.simulate_s ~costs plan ~k:10 in
  let expected =
    (float_of_int r.engine.stats.server_ops *. costs.op_cost)
    +. (float_of_int r.engine.stats.routing_decisions *. costs.route_cost)
  in
  Alcotest.(check (float 1e-9)) "makespan = priced counts" expected r.makespan;
  Alcotest.(check (float 1e-9)) "busy = makespan when sequential" r.makespan
    r.busy_time

let test_parallel_speedup () =
  let plan = Run.compile idx (parse Fixtures.q3) in
  let m1 = Sim_exec.simulate_m ~costs ~processors:1 plan ~k:15 in
  let m4 = Sim_exec.simulate_m ~costs ~processors:4 plan ~k:15 in
  let minf = Sim_exec.simulate_m ~costs ~processors:1000 plan ~k:15 in
  (* Parallelism can change which operations run before the threshold
     rises (extra speculative work), so makespan is not monotone in the
     processor count — but parallel runs must beat the one-CPU run. *)
  Alcotest.(check bool) "4 CPUs beat 1" true (m4.makespan < m1.makespan);
  Alcotest.(check bool) "infinite CPUs beat 1" true
    (minf.makespan < m1.makespan)

let test_makespan_bounds () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let p = 4 in
  let m = Sim_exec.simulate_m ~costs ~processors:p plan ~k:10 in
  (* Makespan is at least busy/p and at most busy (plus the root lead
     op). *)
  Alcotest.(check bool) "lower bound" true
    (m.makespan +. 1e-9 >= m.busy_time /. float_of_int p);
  Alcotest.(check bool) "upper bound" true
    (m.makespan <= m.busy_time +. costs.op_cost +. 1e-9)

let test_answers_are_correct () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let reference = Fixtures.sorted_scores (Engine.run plan ~k:10).answers in
  List.iter
    (fun processors ->
      let m = Sim_exec.simulate_m ~costs ~processors plan ~k:10 in
      Fixtures.check_scores_equal
        ~msg:(Printf.sprintf "sim with %d processors" processors)
        reference
        (Fixtures.sorted_scores m.engine.answers))
    [ 1; 2; 4; 1000 ]

let test_determinism () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let a = Sim_exec.simulate_m ~costs ~processors:2 plan ~k:10 in
  let b = Sim_exec.simulate_m ~costs ~processors:2 plan ~k:10 in
  Alcotest.(check (float 1e-12)) "same makespan" a.makespan b.makespan;
  Alcotest.(check int) "same ops" a.engine.stats.server_ops
    b.engine.stats.server_ops

let test_lockstep_pricing () =
  let plan = Run.compile idx (parse Fixtures.q1) in
  let r = Sim_exec.simulate_lockstep ~costs plan ~k:5 in
  Alcotest.(check bool) "positive makespan" true (r.makespan > 0.0);
  let noprun = Sim_exec.simulate_lockstep ~prune:false ~costs plan ~k:5 in
  Alcotest.(check bool) "noprun costs at least as much" true
    (noprun.makespan +. 1e-9 >= r.makespan)

let test_invalid_processors () =
  let plan = Run.compile idx (parse Fixtures.q1) in
  Alcotest.check_raises "zero processors"
    (Invalid_argument "Sim_exec.simulate_m: processors >= 1") (fun () ->
      ignore (Sim_exec.simulate_m ~costs ~processors:0 plan ~k:3))

(* Once the router prunes its queue's top it must check the seed cursor
   again before popping on: a queue that pruning empties must still open
   or kill every class left, so every created match is accounted for
   (the counter law of the properties suite). *)
let test_router_rechecks_cursor_after_prune () =
  let plan = Run.compile idx (parse "//item[./payment and ./shipping and ./name]") in
  List.iter
    (fun processors ->
      let s = (Sim_exec.simulate_m ~costs ~processors plan ~k:1).engine.stats in
      Alcotest.(check int)
        (Printf.sprintf "%d cpus: created = accounted" processors)
        s.matches_created
        (Array.length plan.roots - Plan.n_seeds plan + s.matches_pruned
       + s.completed + (s.server_ops - 1)))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "router re-checks the cursor after a prune" `Quick
      test_router_rechecks_cursor_after_prune;
    Alcotest.test_case "sequential pricing" `Quick test_sequential_pricing;
    Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup;
    Alcotest.test_case "makespan bounds" `Quick test_makespan_bounds;
    Alcotest.test_case "answers correct" `Quick test_answers_are_correct;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "lockstep pricing" `Quick test_lockstep_pricing;
    Alcotest.test_case "invalid processors" `Quick test_invalid_processors;
  ]
