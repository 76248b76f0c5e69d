(* Bechamel micro-benchmarks of the primitives each experiment stands
   on: one Test.make per exhibit, estimating the per-call cost of the
   operations whose counts the figures and tables report.  This both
   validates the cost model used by the Figure 8/9 simulations and
   documents the constant factors of this implementation. *)

open Bechamel

let tests_for (scale : Common.scale) =
  (* A small fixed workload keeps each Bechamel run in the sub-second
     range; the macro benchmarks cover the big documents. *)
  let size = min 300_000 scale.default_size in
  let plan = Common.plan_for ~size Common.q2 in
  let plan_q1 = Common.plan_for ~size Common.q1 in
  let idx = plan.index in
  let stats = Whirlpool.Stats.create () in
  let next_id =
    let n = ref 0 in
    fun () -> incr n; !n
  in
  let seeds = Whirlpool.Seeds.create plan stats in
  let pm = Option.get (Whirlpool.Seeds.open_next seeds ~threshold:neg_infinity ~next_id) in
  let root = Whirlpool.Partial_match.root_binding pm in
  let topk = Whirlpool.Topk_set.create ~k:15 ~admit_partial:true in
  [
    (* Figure 3 — one static plan evaluation of the motivating example. *)
    Test.make ~name:"fig3/join-plan-eval"
      (Staged.stage (fun () ->
           Whirlpool.Join_plan.evaluate ~root_score:0.0
             ~order:Whirlpool.Join_plan.book_d_example ~current_topk:0.5));
    (* Figures 5-7 — the unit of work they count: one server operation. *)
    Test.make ~name:"fig5-7/server-op"
      (Staged.stage (fun () ->
           Whirlpool.Server.process plan stats ~next_id pm ~server:1));
    (* Figure 8 — the adaptivity overhead: one min_alive routing
       decision vs one static decision. *)
    Test.make ~name:"fig8/route-min-alive"
      (Staged.stage (fun () ->
           Whirlpool.Strategy.choose_next Whirlpool.Strategy.Min_alive plan
             ~threshold:1.0 pm));
    Test.make ~name:"fig8/route-static"
      (Staged.stage
         (let order = Whirlpool.Strategy.default_static_order plan in
          fun () ->
            Whirlpool.Strategy.choose_next (Whirlpool.Strategy.Static order)
              plan ~threshold:1.0 pm));
    (* Figure 9 — what the simulator schedules: queue push/pop and the
       top-k bookkeeping between operations. *)
    Test.make ~name:"fig9/topk-consider"
      (Staged.stage (fun () -> Whirlpool.Topk_set.consider topk ~complete:false pm));
    (* Figures 10-11 / Table 2 — a complete small-document run per
       engine. *)
    Test.make ~name:"fig10-11/whirlpool-s-q1"
      (Staged.stage (fun () -> Whirlpool.Engine.run plan_q1 ~k:15));
    Test.make ~name:"table2/lockstep-noprun-q1"
      (Staged.stage (fun () ->
           Whirlpool.Lockstep.run ~prune:false plan_q1 ~k:15));
    (* Substrate constants. *)
    Test.make ~name:"substrate/index-subtree-count"
      (Staged.stage (fun () ->
           Wp_xml.Index.count_descendants idx "text" ~root));
  ]

let run (scale : Common.scale) =
  Common.header "Bechamel micro-benchmarks (one per exhibit)";
  Common.clear_caches ();
  let tests = tests_for scale in
  let cfg =
    Benchmark.cfg ~limit:3000 ~quota:(Time.second 1.0) ~kde:None ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let grouped = Test.make_grouped ~name:"whirlpool" ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | Some [] | None -> nan
        in
        let r2 = Option.value (Analyze.OLS.r_square ols) ~default:nan in
        (name, est, r2) :: acc)
      results []
  in
  let widths = [ 44; 16; 8 ] in
  Common.print_row widths [ "benchmark"; "time/run"; "r^2" ];
  List.iter
    (fun (name, est, r2) ->
      let pretty =
        if est > 1e9 then Printf.sprintf "%.3f s" (est /. 1e9)
        else if est > 1e6 then Printf.sprintf "%.3f ms" (est /. 1e6)
        else if est > 1e3 then Printf.sprintf "%.3f us" (est /. 1e3)
        else Printf.sprintf "%.1f ns" est
      in
      Common.print_row widths [ name; pretty; Printf.sprintf "%.3f" r2 ])
    (List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) rows)
