(* Figures 6 and 7 — adaptive vs static routing.

   For LockStep-NoPrun, LockStep, Whirlpool-S and Whirlpool-M we run
   every permutation of the static server order (120 plans for the
   6-node Q2) and report the min / median / max execution time (Figure
   6) and number of server operations (Figure 7); for the Whirlpool
   engines we additionally run the adaptive (min_alive) strategy. *)

let cfg routing =
  Whirlpool.Engine.Config.(default |> with_routing routing)

type sample = { dt : float; ops : int }

let summarize samples =
  let dts = List.sort Float.compare (List.map (fun s -> s.dt) samples) in
  let opss = List.sort compare (List.map (fun s -> s.ops) samples) in
  let nth l i = List.nth l i in
  let n = List.length samples in
  ( (nth dts 0, nth dts (n / 2), nth dts (n - 1)),
    (nth opss 0, nth opss (n / 2), nth opss (n - 1)) )

let run (scale : Common.scale) =
  Common.header
    "Figures 6 & 7: static (all permutations) vs adaptive routing (Q2)";
  let plan = Common.plan_for ~size:scale.default_size Common.q2 in
  let k = scale.default_k in
  let perms = Whirlpool.Strategy.static_permutations plan in
  Printf.printf "running %d static permutations per technique...\n%!"
    (List.length perms);
  let static_samples run_with_order =
    List.map
      (fun order ->
        let (r : Whirlpool.Engine.result), dt =
          Common.time (fun () -> run_with_order order)
        in
        { dt; ops = r.stats.server_ops })
      perms
  in
  let techniques =
    [
      ( "LockStep-NoPrun",
        (fun order -> Whirlpool.Lockstep.run ~order ~prune:false plan ~k),
        None );
      ( "LockStep",
        (fun order -> Whirlpool.Lockstep.run ~order ~prune:true plan ~k),
        None );
      ( "Whirlpool-S",
        (fun order ->
          Whirlpool.Engine.run ~config:(cfg (Whirlpool.Strategy.Static order))
            plan ~k),
        Some
          (fun () ->
            Whirlpool.Engine.run ~config:(cfg Whirlpool.Strategy.Min_alive)
              plan ~k) );
      ( "Whirlpool-M",
        (fun order ->
          Whirlpool.Engine_mt.run
            ~config:(cfg (Whirlpool.Strategy.Static order))
            plan ~k),
        Some
          (fun () ->
            Whirlpool.Engine_mt.run ~config:(cfg Whirlpool.Strategy.Min_alive)
              plan ~k) );
    ]
  in
  let results =
    List.map
      (fun (name, static_run, adaptive_run) ->
        Printf.printf "  %s...\n%!" name;
        let samples = static_samples static_run in
        let adaptive =
          Option.map
            (fun f ->
              let (r : Whirlpool.Engine.result) = f () in
              { dt = fst (Common.median_iqr_ms f) /. 1e3;
                ops = r.stats.server_ops })
            adaptive_run
        in
        (name, summarize samples, adaptive))
      techniques
  in
  let widths = [ 18; 12; 12; 12; 12 ] in
  Printf.printf "\nFigure 6 — query execution time:\n";
  Common.print_row widths
    [ "technique"; "min(STATIC)"; "med(STATIC)"; "max(STATIC)"; "ADAPTIVE" ];
  List.iter
    (fun (name, ((tmin, tmed, tmax), _), adaptive) ->
      Common.print_row widths
        [
          name; Common.fsec tmin; Common.fsec tmed; Common.fsec tmax;
          (match adaptive with Some a -> Common.fsec a.dt | None -> "-");
        ])
    results;
  Printf.printf "\nFigure 7 — number of server operations:\n";
  Common.print_row widths
    [ "technique"; "min(STATIC)"; "med(STATIC)"; "max(STATIC)"; "ADAPTIVE" ];
  List.iter
    (fun (name, (_, (omin, omed, omax)), adaptive) ->
      if name <> "LockStep-NoPrun" then
        Common.print_row widths
          [
            name; Common.fint omin; Common.fint omed; Common.fint omax;
            (match adaptive with Some a -> Common.fint a.ops | None -> "-");
          ])
    results;
  Printf.printf
    "\nPaper: Whirlpool-M < Whirlpool-S < LockStep < LockStep-NoPrun in time;\n\
     the adaptive strategies match or beat the best static permutation.\n"
