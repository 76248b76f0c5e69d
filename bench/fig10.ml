(* Figure 10 — execution time vs k and query size (log scale in the
   paper): Whirlpool-S and Whirlpool-M for Q1-Q3 with k in {3, 15, 75}
   on the default (10Mb-class) document. *)

let run (scale : Common.scale) =
  Common.header "Figure 10: execution time vs k and query size";
  let widths = [ 8; 6; 18; 18; 12; 12 ] in
  Common.print_row widths
    [ "query"; "k"; "W-S ms (IQR)"; "W-M ms (IQR)"; "W-S ops"; "W-M ops" ];
  List.iter
    (fun (qname, q) ->
      let plan = Common.plan_for ~size:scale.default_size q in
      List.iter
        (fun k ->
          let ws () = Whirlpool.Engine.run plan ~k in
          let wm () = Whirlpool.Engine_mt.run plan ~k in
          let rs = ws () and rm = wm () in
          Common.print_row widths
            [
              qname; Common.fint k;
              Common.fms_iqr (Common.median_iqr_ms ws);
              Common.fms_iqr (Common.median_iqr_ms wm);
              Common.fint rs.stats.server_ops; Common.fint rm.stats.server_ops;
            ])
        scale.ks)
    Common.queries;
  Printf.printf
    "\nPaper: time grows roughly exponentially with query size and\n\
     linearly with k; the W-M advantage over W-S widens with both.\n"
