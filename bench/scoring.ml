(* Section 6.3.5 (scoring functions) — sparse vs dense score
   distributions: sparse lets the threshold rise quickly (strong
   pruning, fast execution); dense bunches final scores together (weak
   pruning), which is where Whirlpool-M's head start on the threshold
   pays off most. *)

let run (scale : Common.scale) =
  Common.header "Scoring functions: sparse vs dense (Q2, default setting)";
  let k = scale.default_k in
  let widths = [ 20; 14; 18; 12; 12; 12 ] in
  Common.print_row widths
    [ "scoring"; "engine"; "ms (IQR)"; "ops"; "created"; "pruned" ];
  List.iter
    (fun normalization ->
      let plan =
        Common.plan_for ~normalization ~size:scale.default_size Common.q2
      in
      List.iter
        (fun (ename, f) ->
          let (r : Whirlpool.Engine.result) = f () in
          Common.print_row widths
            [
              Format.asprintf "%a" Wp_score.Score_table.pp_normalization
                normalization;
              ename;
              Common.fms_iqr (Common.median_iqr_ms f);
              Common.fint r.stats.server_ops;
              Common.fint r.stats.matches_created;
              Common.fint r.stats.matches_pruned;
            ])
        [
          ("Whirlpool-S", fun () -> Whirlpool.Engine.run plan ~k);
          ("Whirlpool-M", fun () -> Whirlpool.Engine_mt.run plan ~k);
        ])
    [
      Wp_score.Score_table.Sparse;
      Wp_score.Score_table.Dense;
      Wp_score.Score_table.Random_sparse 42;
      Wp_score.Score_table.Random_dense 42;
    ];
  Printf.printf
    "\nPaper: sparse scoring prunes earlier and runs faster; under dense\n\
     scoring the gap between Whirlpool-M and Whirlpool-S widens.\n"
