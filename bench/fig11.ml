(* Figure 11 — execution time vs document size (log scale in the paper):
   Whirlpool-S and Whirlpool-M for Q1-Q3 over the 1Mb/10Mb/50Mb sweep,
   k = 15, with the root candidates and the seeds Whirlpool-S built. *)

let run (scale : Common.scale) =
  Common.header "Figure 11: execution time vs document size (k = 15)";
  let k = scale.default_k in
  let widths = [ 8; 8; 14; 14; 12; 12; 10; 10 ] in
  Common.print_row widths
    [
      "query"; "doc"; "Whirlpool-S"; "Whirlpool-M"; "W-S ops"; "W-M ops";
      "roots"; "W-S seeds";
    ];
  List.iter
    (fun (qname, q) ->
      List.iter
        (fun (slabel, size) ->
          let plan = Common.plan_for ~size q in
          let (rs : Whirlpool.Engine.result), ts =
            Common.timed_runs (fun () -> Whirlpool.Engine.run plan ~k)
          in
          let (rm : Whirlpool.Engine.result), tm =
            Common.timed_runs (fun () -> Whirlpool.Engine_mt.run plan ~k)
          in
          Common.print_row widths
            [
              qname; slabel; Common.fsec ts; Common.fsec tm;
              Common.fint rs.stats.server_ops; Common.fint rm.stats.server_ops;
              Common.fint (Array.length plan.roots);
              Common.fint rs.stats.seeds_materialized;
            ])
        scale.sizes)
    Common.queries;
  Printf.printf
    "\nPaper: time grows steeply with document size; W-M's threading\n\
     overhead dominates on small documents but it wins on medium and\n\
     large ones (up to 92%% faster at 50Mb).\n"
