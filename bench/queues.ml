(* Ablation (paper Section 6.1.3, asserted but not plotted): the effect
   of the server/router queue prioritization policy.  The paper reports
   that the maximum-possible-final-score queue beat the alternatives in
   every configuration tested. *)

let run (scale : Common.scale) =
  Common.header "Ablation: queue prioritization policies (Q2, Whirlpool-S)";
  let plan = Common.plan_for ~size:scale.default_size Common.q2 in
  let k = scale.default_k in
  let widths = [ 22; 18; 12; 12; 12 ] in
  Common.print_row widths
    [ "queue policy"; "ms (IQR)"; "ops"; "created"; "pruned" ];
  List.iter
    (fun queue_policy ->
      let run () =
        Whirlpool.Engine.run
          ~config:
            Whirlpool.Engine.Config.(default |> with_queue_policy queue_policy)
          plan ~k
      in
      let r = run () in
      Common.print_row widths
        [
          Format.asprintf "%a" Whirlpool.Strategy.pp_queue_policy queue_policy;
          Common.fms_iqr (Common.median_iqr_ms run);
          Common.fint r.stats.server_ops;
          Common.fint r.stats.matches_created;
          Common.fint r.stats.matches_pruned;
        ])
    [
      Whirlpool.Strategy.Fifo;
      Whirlpool.Strategy.Current_score;
      Whirlpool.Strategy.Max_next_score;
      Whirlpool.Strategy.Max_final_score;
    ];
  Printf.printf
    "\nPaper: queues on the maximum possible final score performed best in\n\
     all configurations tested (Section 6.1.3).\n"
