(* Figure 11 — execution time vs document size (log scale in the paper):
   Whirlpool-S and Whirlpool-M for Q1-Q3 over the 1Mb/10Mb/50Mb sweep,
   k = 15, with the root candidates, the seeds each engine built, the
   twig join's time and the time to compile the plan over a warm
   component table. *)

(* Warm-memo compile time per plan: what a plan-cache miss costs once
   the document's statistics are memoized (the warm-up compile fills
   the component table). *)
let compile_ms ~size q =
  let idx = Common.index_for size and pattern = Wp_pattern.Xpath_parser.parse q in
  let memo = Wp_score.Component_table.create () in
  Common.median_iqr_ms (fun () ->
      Whirlpool.Plan.compile ~memo idx Wp_relax.Relaxation.all pattern)

let run (scale : Common.scale) =
  Common.header "Figure 11: execution time vs document size (k = 15)";
  let k = scale.default_k in
  let widths = [ 8; 8; 16; 16; 10; 10; 10; 10; 10; 16; 10; 18 ] in
  Common.print_row widths
    [
      "query"; "doc"; "W-S ms (IQR)"; "W-M ms (IQR)"; "W-S ops"; "W-M ops";
      "roots"; "W-S seeds"; "W-M seeds"; "twig ms (IQR)"; "twig ops";
      "compile ms (IQR)";
    ];
  List.iter
    (fun (qname, q) ->
      List.iter
        (fun (slabel, size) ->
          let plan = Common.plan_for ~size q in
          let ws () = Whirlpool.Engine.run plan ~k in
          let wm () = Whirlpool.Engine_mt.run plan ~k in
          let twig () = Wp_twig.Twig_join.run plan ~k in
          let rs = ws () and rm = wm () in
          Common.print_row widths
            [
              qname; slabel;
              Common.fms_iqr (Common.median_iqr_ms ws);
              Common.fms_iqr (Common.median_iqr_ms wm);
              Common.fint rs.stats.server_ops; Common.fint rm.stats.server_ops;
              Common.fint (Array.length plan.roots);
              Common.fint rs.stats.seeds_materialized;
              Common.fint rm.stats.seeds_materialized;
              Common.fms_iqr (Common.median_iqr_ms twig);
              Common.fint (twig ()).stats.server_ops;
              Common.fms_iqr (compile_ms ~size q);
            ])
        scale.sizes)
    Common.queries;
  Printf.printf
    "\nPaper: time grows steeply with document size; W-M's threading\n\
     overhead dominates on small documents but it wins on medium and\n\
     large ones (up to 92%% faster at 50Mb).\n"
