(* Figure 9 — effect of parallelism.

   Ratio of Whirlpool-M's execution time over Whirlpool-S's for 1, 2, 4
   and "infinitely many" processors, for Q1-Q3 (10Mb-class document,
   k = 15).  The paper used machines with up to 54 CPUs; we reproduce
   the sweep on the discrete-event simulator with the paper's ~1.8ms
   per join operation and a fixed routing-decision cost, so the
   processor count is exact and the simulated columns do not depend on
   the host. *)

(* Seconds per adaptive (min_alive) routing decision: the ~0.12 us that
   fig8 measures with [Common.measure_decision_costs] on the machine
   EXPERIMENTS.md reports (the micro exhibit reads 130 ns).  Measuring
   it before each query let a loaded host change the simulated
   interleaving. *)
let decision_cost = 0.12e-6

let run (scale : Common.scale) =
  Common.header "Figure 9: Whirlpool-M / Whirlpool-S time ratio vs processors";
  let k = scale.default_k in
  let processors = [ (1, "1"); (2, "2"); (4, "4"); (100_000, "inf") ] in
  let widths = [ 8; 10; 10; 10; 10; 12; 18; 18 ] in
  Common.print_row widths
    (("query" :: List.map (fun (_, l) -> l ^ " cpu") processors)
    @ [ "real wall"; "W-S ms (IQR)"; "W-M ms (IQR)" ]);
  List.iter
    (fun (qname, q) ->
      let plan = Common.plan_for ~size:scale.default_size q in
      let costs =
        { Whirlpool.Sim_exec.op_cost = 1.8e-3; route_cost = decision_cost }
      in
      let s = Whirlpool.Sim_exec.simulate_s ~costs plan ~k in
      let cells =
        List.map
          (fun (p, _) ->
            let m =
              Whirlpool.Sim_exec.simulate_m ~costs ~processors:p plan ~k
            in
            Common.fratio (m.makespan /. s.makespan))
          processors
      in
      (* Real wall-clock ratio of the medians on this machine (includes
         the domain-spawn overhead the paper attributes to threading),
         with each engine's median and IQR. *)
      let s_wall = Common.median_iqr_ms (fun () -> Whirlpool.Engine.run plan ~k) in
      let m_wall =
        Common.median_iqr_ms (fun () -> Whirlpool.Engine_mt.run plan ~k)
      in
      Common.print_row widths
        ((qname :: cells)
        @ [
            Common.fratio (fst m_wall /. fst s_wall);
            Common.fms_iqr s_wall;
            Common.fms_iqr m_wall;
          ]))
    Common.queries;
  Printf.printf
    "\n(ratios above 1 mean Whirlpool-M is slower than Whirlpool-S)\n\
     Paper: with one CPU, W-M loses to W-S on the small Q1; with more\n\
     CPUs it wins increasingly on Q2/Q3 — up to ~3.5x with unlimited\n\
     parallelism — and the speedup saturates once the CPU count exceeds\n\
     the number of servers + 2.\n"
