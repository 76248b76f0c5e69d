(* Figure 5 — query execution time of Whirlpool-S and Whirlpool-M under
   the three adaptive routing strategies (max_score, min_score,
   min_alive_partial_matches); default setting: Q2, 10Mb document,
   k = 15. *)

let run (scale : Common.scale) =
  Common.header "Figure 5: adaptive routing strategies (Q2, default setting)";
  let plan = Common.plan_for ~size:scale.default_size Common.q2 in
  let k = scale.default_k in
  let routings =
    [
      ("max_score", Whirlpool.Strategy.Max_score);
      ("min_score", Whirlpool.Strategy.Min_score);
      ("min_alive_partial_matches", Whirlpool.Strategy.Min_alive);
    ]
  in
  let widths = [ 28; 14; 18; 12; 12 ] in
  Common.print_row widths [ "routing"; "engine"; "ms (IQR)"; "ops"; "created" ];
  List.iter
    (fun (rname, routing) ->
      List.iter
        (fun (ename, run_engine) ->
          let run () = run_engine routing in
          let (r : Whirlpool.Engine.result) = run () in
          Common.print_row widths
            [
              rname; ename; Common.fms_iqr (Common.median_iqr_ms run);
              Common.fint r.stats.server_ops;
              Common.fint r.stats.matches_created;
            ])
        [
          ( "Whirlpool-S",
            fun routing ->
              Whirlpool.Engine.run
                ~config:Whirlpool.Engine.Config.(default |> with_routing routing)
                plan ~k );
          ( "Whirlpool-M",
            fun routing ->
              Whirlpool.Engine_mt.run
                ~config:Whirlpool.Engine.Config.(default |> with_routing routing)
                plan ~k );
        ])
    routings;
  Printf.printf
    "\nPaper: min_alive_partial_matches is the fastest for both engines;\n\
     max_score is the slowest (it reduces pruning opportunities).\n"
