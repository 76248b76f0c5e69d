(* Whirlpool-M coordination stress: many repeated runs, a full sweep of
   queue policies x routing strategies x documents, and deep Raceway
   schedule exploration must all terminate and agree with the
   single-threaded reference.  Adverse schedules let queues grow and
   interleavings vary, so this is the suite's main flakiness and
   wall-clock sink — hence @slow. *)

open Whirlpool

let idx = Lazy.force Fixtures.xmark_index
let parse = Fixtures.parse

let test_repeated_runs_terminate () =
  let plan = Run.compile idx (parse Fixtures.q1) in
  let reference = Fixtures.sorted_scores (Engine.run plan ~k:5).answers in
  for _ = 1 to 20 do
    let m = Engine_mt.run plan ~k:5 in
    Fixtures.check_scores_equal ~msg:"repeated W-M run" reference
      (Fixtures.sorted_scores m.answers)
  done

(* Sweep queue policy x routing strategy x document seed: every
   combination must agree with Engine.run under the same config.  The
   Static routing order is the identity permutation over the plan's
   non-root servers. *)
let test_sweep () =
  List.iter
    (fun gen_seed ->
      let doc =
        Wp_xmark.Generator.generate_doc ~seed:gen_seed ~target_bytes:60_000 ()
      in
      let sweep_idx = Wp_xml.Index.build doc in
      let plan = Run.compile sweep_idx (parse Fixtures.q1) in
      let static_order =
        Array.init (plan.Plan.n_servers - 1) (fun i -> i + 1)
      in
      let routings =
        [ Strategy.Min_alive; Strategy.Max_score; Strategy.Min_score;
          Strategy.Static static_order ]
      in
      List.iter
        (fun routing ->
          List.iter
            (fun queue_policy ->
              let config =
                Engine.Config.(
                  default |> with_routing routing
                  |> with_queue_policy queue_policy)
              in
              let reference =
                Fixtures.sorted_scores (Engine.run ~config plan ~k:5).answers
              in
              let m = Engine_mt.run ~config plan ~k:5 in
              Fixtures.check_scores_equal
                ~msg:
                  (Format.asprintf "doc seed %d, %a, %a" gen_seed
                     Strategy.pp_routing routing Strategy.pp_queue_policy
                     queue_policy)
                reference
                (Fixtures.sorted_scores m.answers))
            Strategy.
              [ Fifo; Current_score; Max_next_score; Max_final_score ])
        routings)
    [ 11; 23; 47 ]

(* Deep Raceway pass over the shared fixture: 200 explored schedules of
   the clean engine must produce zero findings and oracle-equivalent
   answers (the per-query depth the checker is specified at). *)
let test_race_deep () =
  let plan = Run.compile idx (parse Fixtures.q1) in
  let r = Race.check ~schedules:200 plan ~k:5 in
  Alcotest.(check (list string))
    "200 schedules, no findings" []
    (List.map
       (fun (d : Wp_analysis.Diagnostic.t) -> d.Wp_analysis.Diagnostic.code)
       r.Race.diagnostics)

(* Concurrent first fills of one component table, many times over:
   each round gives four domains a fresh table and the ad-hoc patterns
   in rotated orders.  Every plan must carry a fresh table's
   statistics and the table one entry per distinct key.  Under TSan
   this covers the table's mutex. *)
let test_memo_fill_rounds () =
  let queries = Array.of_list Fixtures.adhoc_queries in
  let n = Array.length queries in
  let compile ?memo q =
    Plan.compile ?memo idx Wp_relax.Relaxation.all (parse queries.(q))
  in
  let reference = Array.init n (fun q -> compile q) in
  let warm = Wp_score.Component_table.create () in
  Array.iteri (fun q _ -> ignore (compile ~memo:warm q)) queries;
  let distinct_keys = (Wp_score.Component_table.stats warm).size in
  for round = 1 to 100 do
    let memo = Wp_score.Component_table.create () in
    let plans =
      Fixtures.on_domains 4 (fun i ->
          List.init n (fun j ->
              let q = ((round * i) + j) mod n in
              (q, compile ~memo q)))
    in
    List.iter
      (List.iter (fun (q, plan) ->
           Fixtures.check_same_statistics
             ~msg:(Printf.sprintf "round %d, %s" round queries.(q))
             reference.(q) plan))
      plans;
    Alcotest.(check int)
      (Printf.sprintf "round %d: one entry per key" round)
      distinct_keys
      (Wp_score.Component_table.stats memo).size
  done

let suite =
  [
    Alcotest.test_case "repeated runs terminate" `Slow
      test_repeated_runs_terminate;
    Alcotest.test_case "queue policy x routing x seed sweep" `Slow test_sweep;
    Alcotest.test_case "raceway: 200 schedules clean" `Slow test_race_deep;
    Alcotest.test_case "component table: concurrent fill rounds" `Slow
      test_memo_fill_rounds;
  ]
