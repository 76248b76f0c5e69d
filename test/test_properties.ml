(* Whole-engine property tests: random documents x random patterns x
   random configurations, checked against the exhaustive no-pruning
   reference. *)

open Whirlpool

let gen_config =
  QCheck2.Gen.(
    map3
      (fun eg ld sp ->
        {
          Wp_relax.Relaxation.edge_generalization = eg;
          leaf_deletion = ld;
          subtree_promotion = sp;
          value_relaxation = false;
        })
      bool bool bool)

(* Documents with enough structure for patterns to bite: a couple of
   levels, few tags. *)
let gen_doc =
  QCheck2.Gen.map Wp_xml.Doc.of_tree Test_doc.gen_tree

let gen_inputs =
  QCheck2.Gen.triple gen_doc Test_matcher.small_pattern_gen gen_config

(* Different server orders sum the same weights in different sequences,
   so scores agree only up to float-addition reassociation noise. *)
let close a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) a b

let prop_engine_equals_noprun =
  QCheck2.Test.make ~name:"W-S top-k = no-pruning top-k (random everything)"
    ~count:120 gen_inputs (fun (doc, pat, config) ->
      let idx = Wp_xml.Index.build doc in
      let plan = Run.compile ~config idx pat in
      let k = 4 in
      let a = Fixtures.sorted_scores (Engine.run plan ~k).answers in
      let b =
        Fixtures.sorted_scores (Lockstep.run ~prune:false plan ~k).answers
      in
      close a b)

let prop_lockstep_equals_noprun =
  QCheck2.Test.make ~name:"LockStep top-k = no-pruning top-k" ~count:120
    gen_inputs (fun (doc, pat, config) ->
      let idx = Wp_xml.Index.build doc in
      let plan = Run.compile ~config idx pat in
      let k = 4 in
      close
        (Fixtures.sorted_scores (Lockstep.run plan ~k).answers)
        (Fixtures.sorted_scores (Lockstep.run ~prune:false plan ~k).answers))

let prop_exact_mode_equals_matcher =
  QCheck2.Test.make ~name:"exact engine roots are exact matches" ~count:120
    (QCheck2.Gen.pair gen_doc Test_matcher.small_pattern_gen)
    (fun (doc, pat) ->
      let idx = Wp_xml.Index.build doc in
      let plan = Run.compile ~config:Wp_relax.Relaxation.exact idx pat in
      let answers = (Engine.run plan ~k:5).answers in
      let exact = Wp_pattern.Matcher.matching_roots idx pat in
      List.length answers = min 5 (List.length exact)
      && List.for_all
           (fun (e : Topk_set.entry) -> List.mem e.root exact)
           answers)

let prop_k_monotone =
  QCheck2.Test.make ~name:"answers grow with k and scores are prefixes"
    ~count:80
    (QCheck2.Gen.pair gen_doc Test_matcher.small_pattern_gen)
    (fun (doc, pat) ->
      let idx = Wp_xml.Index.build doc in
      let plan = Run.compile idx pat in
      let s3 = Fixtures.sorted_scores (Engine.run plan ~k:3).answers in
      let s6 = Fixtures.sorted_scores (Engine.run plan ~k:6).answers in
      List.length s3 <= List.length s6
      && List.for_all2
           (fun a b -> Float.abs (a -. b) < 1e-9)
           s3
           (List.filteri (fun i _ -> i < List.length s3) s6))

let prop_scores_bounded =
  QCheck2.Test.make ~name:"scores within [0, max_total]" ~count:120 gen_inputs
    (fun (doc, pat, config) ->
      let idx = Wp_xml.Index.build doc in
      let plan = Run.compile ~config idx pat in
      let bound = Wp_score.Score_table.max_total plan.scores +. 1e-9 in
      List.for_all
        (fun (e : Topk_set.entry) -> e.score >= 0.0 && e.score <= bound)
        (Engine.run plan ~k:5).answers)

(* Threshold mode returns exactly the no-pruning answers above the
   bar, under the default and the exact configuration: the same roots
   in the same order, scores equal up to reassociation noise. *)
let prop_run_above_consistent_with_top_k =
  QCheck2.Test.make ~name:"run_above agrees with top-k filtering" ~count:80
    (QCheck2.Gen.pair gen_doc Test_matcher.small_pattern_gen)
    (fun (doc, pat) ->
      let idx = Wp_xml.Index.build doc in
      List.for_all
        (fun config ->
          let plan = Run.compile ~config idx pat in
          let everything = Lockstep.run ~prune:false plan ~k:10_000 in
          let threshold =
            match Fixtures.sorted_scores everything.answers with
            | _ :: s :: _ -> s -. 1e-9
            | _ -> 0.0
          in
          let above = (Engine.run_above plan ~threshold).answers in
          let expected =
            List.filter
              (fun (e : Topk_set.entry) -> e.score > threshold)
              everything.answers
          in
          let roots = List.map (fun (e : Topk_set.entry) -> e.root) in
          let scores = List.map (fun (e : Topk_set.entry) -> e.score) in
          roots above = roots expected && close (scores above) (scores expected))
        [ Wp_relax.Relaxation.all; Wp_relax.Relaxation.exact ])

(* Every created match ends exactly once: killed at the root server by
   a required server, pruned, completed, or consumed by one non-root
   server visit.  A drained run of any engine obeys
   [created = (roots - seeds) + pruned + completed + (server_ops - 1)]
   over every fixture query, relaxation configuration, k and queue
   policy. *)
let test_counter_law () =
  let bools = [ false; true ] in
  let configs =
    List.concat_map
      (fun edge_generalization ->
        List.concat_map
          (fun leaf_deletion ->
            List.concat_map
              (fun subtree_promotion ->
                List.map
                  (fun value_relaxation ->
                    {
                      Wp_relax.Relaxation.edge_generalization;
                      leaf_deletion;
                      subtree_promotion;
                      value_relaxation;
                    })
                  bools)
              bools)
          bools)
      bools
  in
  let queries =
    List.map (fun q -> (Fixtures.books_index, q))
      Fixtures.[ q2a; q2b; q2c; q2d ]
    @ List.map
        (fun q -> (Lazy.force Fixtures.xmark_index, q))
        Fixtures.adhoc_queries
  in
  let costs = { Sim_exec.op_cost = 1e-3; route_cost = 1e-5 } in
  let with_policy policy = Engine.Config.(default |> with_queue_policy policy) in
  let sim processors ~policy plan ~k =
    (Sim_exec.simulate_m ~config:(with_policy policy) ~costs ~processors plan
       ~k)
      .engine
  in
  let ws ~policy plan ~k = Engine.run ~config:(with_policy policy) plan ~k in
  let wm ~policy plan ~k =
    let config = with_policy policy in
    match
      (Sched.run ~choose:(Sched.random ~seed:k) (fun sync ->
           let module E = Engine_mt.Make ((val sync : Sync.S)) in
           E.run ~config plan ~k))
        .value
    with
    | Ok r -> r
    | Error e -> raise e
  in
  let lockstep ~prune ~policy plan ~k =
    Lockstep.run ~config:(with_policy policy) ~prune plan ~k
  in
  (* The cheap engines run the whole grid; the slower ones k = 5 under
     two policies. *)
  let every_policy =
    Strategy.[ Fifo; Current_score; Max_next_score; Max_final_score ]
  in
  let full = (every_policy, [ 1; 5; 15 ])
  and some = (Strategy.[ Fifo; Max_final_score ], [ 5 ]) in
  let engines =
    [
      ("whirlpool-s", full, ws);
      ("sim 1 cpu", full, sim 1);
      ("sim 2 cpus", full, sim 2);
      ("sim inf cpus", full, sim max_int);
      ("whirlpool-m (sched)", some, wm);
      ("lockstep", some, lockstep ~prune:true);
      ("lockstep-noprun", some, lockstep ~prune:false);
    ]
  in
  let failures = ref [] in
  let check name q (plan : Plan.t) ~k (s : Stats.t) =
    let ended =
      Array.length plan.roots - Plan.n_seeds plan
      + s.matches_pruned + s.completed + (s.server_ops - 1)
    in
    if s.matches_created <> ended then
      failures :=
        Printf.sprintf "%s %s k=%d: created %d, accounted %d" name q k
          s.matches_created ended
        :: !failures
  in
  List.iter
    (fun (idx, q) ->
      List.iter
        (fun config ->
          let plan = Run.compile ~config idx (Fixtures.parse q) in
          List.iter
            (fun threshold ->
              check "run_above" q plan ~k:0
                (Engine.run_above plan ~threshold).stats)
            [ 0.0; 1.0 ];
          List.iter
            (fun (name, (policies, ks), run) ->
              List.iter
                (fun policy ->
                  List.iter
                    (fun k -> check name q plan ~k (run ~policy plan ~k).Engine.stats)
                    ks)
                policies)
            engines)
        configs)
    queries;
  Alcotest.(check (list string)) "runs breaking the law" [] (List.rev !failures)

let suite =
  Alcotest.test_case "counter law: every engine" `Quick test_counter_law
  :: List.map QCheck_alcotest.to_alcotest
    [
      prop_engine_equals_noprun;
      prop_lockstep_equals_noprun;
      prop_exact_mode_equals_matcher;
      prop_k_monotone;
      prop_scores_bounded;
      prop_run_above_consistent_with_top_k;
    ]
