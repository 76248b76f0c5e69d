(* Baseline comparison: the Fagin-style Threshold Algorithm vs the
   adaptive engine.

   The paper's related-work argument (Section 3): Fagin's family
   assumes per-predicate sorted score lists that exist up front; on XML
   joins those lists must first be materialized with a full scan, after
   which TA's early termination saves little.  This exhibit quantifies
   both halves of that argument. *)

let run (scale : Common.scale) =
  Common.header "Baseline: Threshold Algorithm (Fagin) vs Whirlpool-S";
  let k = scale.default_k in
  let widths = [ 8; 12; 18; 12; 12; 12; 18; 12 ] in
  Common.print_row widths
    [ "query"; "build"; "TA ms (IQR)"; "sorted"; "random"; "NRA sorted";
      "W-S ms (IQR)"; "W-S ops" ];
  List.iter
    (fun (qname, q) ->
      let plan = Common.plan_for ~size:scale.default_size q in
      let lists, build_dt =
        Common.time (fun () -> Whirlpool.Fagin.build_lists plan)
      in
      let run_ta () = Whirlpool.Fagin.top_k lists ~k in
      let run_ws () = Whirlpool.Engine.run plan ~k in
      let ta = run_ta () and ws = run_ws () in
      let nra = Whirlpool.Fagin.top_k_nra lists ~k in
      Common.print_row widths
        [
          qname;
          Common.fsec build_dt;
          Common.fms_iqr (Common.median_iqr_ms run_ta);
          Common.fint ta.sorted_accesses;
          Common.fint ta.random_accesses;
          Common.fint nra.sorted_accesses;
          Common.fms_iqr (Common.median_iqr_ms run_ws);
          Common.fint ws.stats.server_ops;
        ])
    Common.queries;
  Printf.printf
    "\nTA itself is fast once its sorted lists exist, but building them\n\
     costs a full scan of every candidate (the 'build' column) — the\n\
     work Whirlpool avoids by pruning during the join itself.\n"
