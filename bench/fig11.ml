(* Figure 11 — execution time vs document size (log scale in the paper):
   Whirlpool-S and Whirlpool-M for Q1-Q3 over the 1Mb/10Mb/50Mb sweep,
   k = 15, with the root candidates, the seeds each engine built and the
   time to compile the plan over a warm component table. *)

(* Warm-memo compile time per plan, in milliseconds: the median and the
   interquartile range of 21 compiles over a component table the first
   compile filled — what a plan-cache miss costs once the document's
   statistics are memoized.  A full major collection first, so that the
   samples do not pay for the garbage of generating the document. *)
let compile_ms ~size q =
  let idx = Common.index_for size and pattern = Wp_pattern.Xpath_parser.parse q in
  let memo = Wp_score.Component_table.create () in
  let compile () =
    Whirlpool.Plan.compile ~memo idx Wp_relax.Relaxation.all pattern
  in
  ignore (compile ());
  Gc.full_major ();
  let samples = Array.init 21 (fun _ -> snd (Common.time compile) *. 1e3) in
  Array.sort Float.compare samples;
  (samples.(10), samples.(15) -. samples.(5))

let run (scale : Common.scale) =
  Common.header "Figure 11: execution time vs document size (k = 15)";
  let k = scale.default_k in
  let widths = [ 8; 8; 14; 14; 12; 12; 10; 10; 10; 18 ] in
  Common.print_row widths
    [
      "query"; "doc"; "Whirlpool-S"; "Whirlpool-M"; "W-S ops"; "W-M ops";
      "roots"; "W-S seeds"; "W-M seeds"; "compile ms (IQR)";
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
          let compile, iqr = compile_ms ~size q in
          Common.print_row widths
            [
              qname; slabel; Common.fsec ts; Common.fsec tm;
              Common.fint rs.stats.server_ops; Common.fint rm.stats.server_ops;
              Common.fint (Array.length plan.roots);
              Common.fint rs.stats.seeds_materialized;
              Common.fint rm.stats.seeds_materialized;
              Printf.sprintf "%.3f (%.3f)" compile iqr;
            ])
        scale.sizes)
    Common.queries;
  Printf.printf
    "\nPaper: time grows steeply with document size; W-M's threading\n\
     overhead dominates on small documents but it wins on medium and\n\
     large ones (up to 92%% faster at 50Mb).\n"
