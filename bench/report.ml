(* Machine-readable perf-regression harness.

     dune exec bench/report.exe -- --quick              # small documents
     dune exec bench/report.exe -- -o BENCH_core.json   # write the baseline
     dune exec bench/report.exe -- --quick --check BENCH_core.json

   Emits one JSON object per exhibit (fig6/fig8-style workloads, the
   fig6 workload under dense scoring, a backend comparison, and wall-only exhibits for the dataguide build
   over memory-mapped .wpidx documents and for compiling ad-hoc plans)
   with the engine's wall time and its machine-independent operation
   counters.  The A/B exhibits (dataguide build vs a cold query,
   shared vs fresh compile memo) also carry their
   second arm under ["uncached"] and the ratio of the two wall times
   under ["speedup"].

   [--check baseline.json] re-runs the exhibits and exits 1 when any
   comparison/ops/matches/seeds count regresses (those are deterministic
   and machine-independent) or when wall time regresses by more than
   the tolerance (15% by default; [--warn-wall] demotes wall-time
   regressions to warnings for noisy CI machines).  The baseline is
   read before anything runs; a checking run writes a report only
   where [-o] names one, and refuses (exit 2) to write it over the
   baseline. *)

module Json = Wp_json.Json

type measurement = {
  wall_ns : int;
  comparisons : int;
  server_ops : int;
  matches_created : int;
  seeds_materialized : int;
}

let of_stats (s : Whirlpool.Stats.t) =
  {
    wall_ns = Int64.to_int s.wall_ns;
    comparisons = s.comparisons;
    server_ops = s.server_ops;
    matches_created = s.matches_created;
    seeds_materialized = s.seeds_materialized;
  }

(* Median-by-wall-time of [runs] runs (the first run warms the document
   and plan caches). *)
let measure ~runs f =
  let samples = List.init (max 1 runs) (fun _ -> of_stats (f ())) in
  let sorted =
    List.sort (fun a b -> compare a.wall_ns b.wall_ns) samples
  in
  List.nth sorted (List.length sorted / 2)

(* Wall-time-only exhibits: the median of [runs] timings of [f], with
   the counters zeroed. *)
let wall_only ~runs f =
  let timed () =
    let t0 = Whirlpool.Clock.now_ns () in
    f ();
    Int64.to_int (Int64.sub (Whirlpool.Clock.now_ns ()) t0)
  in
  let samples = List.sort compare (List.init (max 1 runs) (fun _ -> timed ())) in
  {
    wall_ns = List.nth samples (List.length samples / 2);
    comparisons = 0;
    server_ops = 0;
    matches_created = 0;
    seeds_materialized = 0;
  }

(* [ab] is the second arm of an A/B exhibit, [None] elsewhere. *)
type exhibit = { name : string; m : measurement; ab : measurement option }

let run_workload ~runs ~trace ~routing plan ~k =
  let go () =
    let config = Whirlpool.Engine.Config.(default |> with_routing routing) in
    let config =
      (* --trace: a fresh enabled observability context per run — the
         gate then also proves tracing leaves every counter unchanged. *)
      if trace then
        Whirlpool.Engine.Config.with_obs (Wp_obs.Obs.create ()) config
      else config
    in
    (Whirlpool.Engine.run ~config plan ~k).Whirlpool.Engine.stats
  in
  measure ~runs go

let exhibits (scale : Common.scale) ~runs ~trace =
  let k = scale.default_k in
  let out = ref [] in
  let add ?ab name m =
    Printf.printf "  %-40s wall=%.4fs cmp=%d%s\n%!" name
      (float_of_int m.wall_ns /. 1e9)
      m.comparisons
      (match ab with
      | None -> ""
      | Some b ->
          Printf.sprintf " (vs %.4fs cmp=%d)"
            (float_of_int b.wall_ns /. 1e9)
            b.comparisons);
    out := { name; m; ab } :: !out
  in
  (* fig6-style: the paper's three XMark queries under adaptive routing
     at the default size and k. *)
  Printf.printf "fig6-style (adaptive routing, default size, k=%d)\n%!" k;
  List.iter
    (fun (qname, q) ->
      let plan = Common.plan_for ~size:scale.default_size q in
      add
        (Printf.sprintf "fig6/%s" qname)
        (run_workload ~runs ~trace ~routing:Whirlpool.Strategy.Min_alive plan ~k))
    Common.queries;
  (* The same workload under dense scoring (§6.3.5): final scores bunch
     together, so pruning bites late and the seed bounds carry most of
     it. *)
  Printf.printf "dense scoring (adaptive routing, default size, k=%d)\n%!" k;
  List.iter
    (fun (qname, q) ->
      let plan =
        Common.plan_for ~normalization:Wp_score.Score_table.Dense
          ~size:scale.default_size q
      in
      add
        (Printf.sprintf "scoring/dense/%s" qname)
        (run_workload ~runs ~trace ~routing:Whirlpool.Strategy.Min_alive plan ~k))
    Common.queries;
  (* fig8-style: adaptivity overhead — the same workload under the
     default static order. *)
  Printf.printf "fig8-style (static routing, default size, k=%d)\n%!" k;
  List.iter
    (fun (qname, q) ->
      let plan = Common.plan_for ~size:scale.default_size q in
      let order = Whirlpool.Strategy.default_static_order plan in
      add
        (Printf.sprintf "fig8/static/%s" qname)
        (run_workload ~runs ~trace ~routing:(Whirlpool.Strategy.Static order) plan ~k))
    Common.queries;
  (* backend comparison: the twig-join competitor over the same
     fig8-style workload.  The first rows pin k to the twig join's
     exact-match count, so its whole answer set is in range (the one
     point where a full join is the right plan); the [k10] rows ask a
     top-k query's k of Whirlpool and twig.  Every backend must return
     the top-k the checks below demand (the harness aborts on any
     disagreement). *)
  Printf.printf "backend comparison (whirlpool vs lockstep vs twig)\n%!";
  let whirlpool = ("whirlpool", Whirlpool.Engine.Config.Whirlpool)
  and lockstep = ("lockstep", Whirlpool.Engine.Config.Lockstep)
  and twig = ("twig", Whirlpool.Engine.Config.Twig) in
  List.iter
    (fun (qname, q) ->
      let plan = Common.plan_for ~size:scale.default_size q in
      let m = Wp_twig.Twig_join.match_count plan in
      let max_total =
        Wp_score.Score_table.max_total plan.Whirlpool.Plan.scores
      in
      let entries (r : Whirlpool.Engine.result) =
        List.map
          (fun (e : Whirlpool.Topk_set.entry) -> (e.root, e.score))
          r.answers
      in
      let rows ~label ~k algos =
        let plain = Whirlpool.Engine.run plan ~k in
        List.iter
          (fun (aname, algo) ->
            let config = Whirlpool.Engine.Config.(default |> with_algo algo) in
            let name = Printf.sprintf "backend/%s%s/%s" qname label aname in
            let r = Wp_twig.Backend.run ~config plan ~k in
            (* Plain twig is exact-only: zero-penalty relaxations can tie
               [max_total] and displace exact roots in the relaxed
               engines' top-k, so the guard for it is exactness (count
               and score), not entry equality. *)
            (if algo = Whirlpool.Engine.Config.Twig then begin
               if List.length r.Whirlpool.Engine.answers <> min k m then
                 failwith
                   (Printf.sprintf "%s: expected %d exact answers" name
                      (min k m));
               List.iter
                 (fun (e : Whirlpool.Topk_set.entry) ->
                   if e.score <> max_total then
                     failwith
                       (Printf.sprintf "%s: non-exact score in answers" name))
                 r.Whirlpool.Engine.answers
             end
             else if m > 0 && entries r <> entries plain then
               failwith
                 (Printf.sprintf "%s: top-k diverged from whirlpool" name));
            add name
              (measure ~runs (fun () ->
                   (Wp_twig.Backend.run ~config plan ~k)
                     .Whirlpool.Engine.stats)))
          algos
      in
      rows ~label:"" ~k:(max 1 m) [ whirlpool; lockstep; twig ];
      rows ~label:"/k10" ~k:10 [ whirlpool; twig ])
    Common.queries;
  (* A mapped serve corpus: several XMark documents written as .wpidx
     files and memory-mapped back (the serving path).  Document 0 is
     content-rich (deep parlists, full mailboxes) and the rest are
     sparse. *)
  let n_docs = 4 in
  let bytes_per_doc = scale.default_size / 8 in
  Printf.printf "mapped serve corpus (%d mapped %d-byte documents, k=%d)\n%!"
    n_docs bytes_per_doc k;
  let doc_paths =
    List.init n_docs (fun i ->
        let profile =
          if i = 0 then Wp_xmark.Generator.rich_profile
          else Wp_xmark.Generator.sparse_profile
        in
        let doc =
          Wp_xmark.Generator.generate_doc ~profile ~seed:(500 + i)
            ~target_bytes:bytes_per_doc ()
        in
        let path = Filename.temp_file "wp-bench-doc" ".wpidx" in
        let (_ : int) = Wp_storage.Index_file.write path doc in
        path)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) doc_paths)
    (fun () ->
      let indexes =
        List.map
          (fun p ->
            match Wp_storage.Index_file.open_index p with
            | Ok h -> Wp_storage.Index_file.index h
            | Error e -> failwith (Wp_storage.Index_file.error_message e))
          doc_paths
      in
      (* dataguide build vs one cold query over the same mapped corpus:
         the twig backend's catalog cost.  Counters are meaningless
         here; the first arm is the per-corpus dataguide build wall
         time and the second one Q2 pass over every document, so
         [speedup] reads "cold queries per dataguide build" and the
         acceptance bar is a value above 1. *)
      let build () =
        List.iter
          (fun idx ->
            ignore
              (Sys.opaque_identity
                 (Wp_stats.Dataguide.build (Wp_xml.Index.doc idx))))
          indexes
      in
      let q2_plans =
        List.map
          (fun idx ->
            Whirlpool.Run.compile ~config:Wp_relax.Relaxation.with_content idx
              (Wp_pattern.Xpath_parser.parse Common.q2))
          indexes
      in
      let cold () =
        List.iter
          (fun plan ->
            ignore (Sys.opaque_identity (Whirlpool.Engine.run plan ~k)))
          q2_plans
      in
      add ~ab:(wall_only ~runs cold) "serve/dataguide/build-vs-cold-query"
        (wall_only ~runs build));
  (* plan compile: what every plan-cache miss pays before an engine
     runs.  Wall time only: every ad-hoc pattern compiled against the
     1 MB document under all relaxations.  The first arm shares one
     component table across a run's patterns, fresh for each run, as
     the serve catalog shares one per document; the second gives every
     pattern an empty table. *)
  let idx = Common.index_for 1_000_000 in
  let patterns = List.map Wp_pattern.Xpath_parser.parse Common.adhoc_patterns in
  Printf.printf "plan compile (%d ad-hoc patterns, 1 MB document)\n%!"
    (List.length patterns);
  let compile ~shared () =
    let run_memo = Wp_score.Component_table.create () in
    List.iter
      (fun pat ->
        let memo =
          if shared then run_memo else Wp_score.Component_table.create ()
        in
        ignore
          (Sys.opaque_identity
             (Whirlpool.Plan.compile ~memo idx Wp_relax.Relaxation.all pat)))
      patterns
  in
  add
    ~ab:(wall_only ~runs (compile ~shared:false))
    "plan/compile/adhoc"
    (wall_only ~runs (compile ~shared:true));
  List.rev !out

let measurement_to_json m =
  Json.Obj
    [
      ("wall_ns", Json.Int m.wall_ns);
      ("comparisons", Json.Int m.comparisons);
      ("server_ops", Json.Int m.server_ops);
      ("matches_created", Json.Int m.matches_created);
      ("seeds_materialized", Json.Int m.seeds_materialized);
    ]

let to_json ~quick exhibits =
  let speedup a b =
    if a.wall_ns <= 0 then 0.0
    else float_of_int b.wall_ns /. float_of_int a.wall_ns
  in
  Json.Obj
    [
      ("schema", Json.String "whirlpool-bench-core/1");
      ("quick", Json.Bool quick);
      ( "exhibits",
        Json.Obj
          (List.map
             (fun e ->
               ( e.name,
                 match (measurement_to_json e.m, e.ab) with
                 | Json.Obj fields, Some b ->
                     Json.Obj
                       (fields
                       @ [
                           ("uncached", measurement_to_json b);
                           ("speedup", Json.Float (speedup e.m b));
                         ])
                 | j, _ -> j ))
             exhibits) );
    ]

(* --- baseline checking --- *)

let int_member name j =
  match Json.member name j with Some (Json.Int i) -> Some i | _ -> None

let baseline_exhibits path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> (
      match Json.of_string text with
      | Error m -> Error (Printf.sprintf "%s: unparseable baseline: %s" path m)
      | Ok j -> (
          match Json.member "exhibits" j with
          | Some (Json.Obj fields) -> Ok fields
          | _ -> Error (Printf.sprintf "%s: no \"exhibits\" object" path)))

type verdict = { failures : string list; warnings : string list }

let check ~warn_wall ~wall_tolerance baseline exhibits =
  let failures = ref [] and warnings = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let warn fmt = Printf.ksprintf (fun m -> warnings := m :: !warnings) fmt in
  let checked = ref 0 in
  List.iter
    (fun e ->
      match List.assoc_opt e.name baseline with
      | None -> warn "%s: not in baseline (new exhibit?)" e.name
      | Some base ->
          incr checked;
          let count field current =
            match int_member field base with
            | None -> warn "%s: baseline lacks %S" e.name field
            | Some b ->
                if current > b then
                  fail "%s: %s regressed %d -> %d" e.name field b current
          in
          count "comparisons" e.m.comparisons;
          count "server_ops" e.m.server_ops;
          count "matches_created" e.m.matches_created;
          count "seeds_materialized" e.m.seeds_materialized;
          (match int_member "wall_ns" base with
          | None -> warn "%s: baseline lacks \"wall_ns\"" e.name
          | Some b when b > 0 ->
              let ratio = float_of_int e.m.wall_ns /. float_of_int b in
              (* Sub-millisecond exhibits jitter well past any relative
                 tolerance; require an absolute 1ms excess too. *)
              if
                ratio > 1.0 +. (wall_tolerance /. 100.0)
                && e.m.wall_ns - b > 1_000_000
              then
                if warn_wall then
                  warn "%s: wall time %.2fx the baseline (%.4fs -> %.4fs)"
                    e.name ratio
                    (float_of_int b /. 1e9)
                    (float_of_int e.m.wall_ns /. 1e9)
                else
                  fail "%s: wall time %.2fx the baseline (%.4fs -> %.4fs)"
                    e.name ratio
                    (float_of_int b /. 1e9)
                    (float_of_int e.m.wall_ns /. 1e9)
          | Some _ -> ()))
    exhibits;
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun e -> e.name = name) exhibits) then
        warn "%s: in baseline but not produced (stale row?)" name)
    baseline;
  if !checked = 0 then
    fail "no exhibit matched the baseline (quick vs full scale mismatch?)";
  { failures = List.rev !failures; warnings = List.rev !warnings }

let same_file a b =
  match (Unix.stat a, Unix.stat b) with
  | sa, sb -> sa.Unix.st_dev = sb.Unix.st_dev && sa.Unix.st_ino = sb.Unix.st_ino
  | exception Unix.Unix_error _ -> false

let write_report ~quick output exhibits =
  let oc = open_out output in
  output_string oc (Format.asprintf "%a@." Json.pp (to_json ~quick exhibits));
  close_out oc;
  Printf.printf "wrote %s (%d exhibits)\n%!" output (List.length exhibits)

let run_exhibits quick runs trace =
  let scale = if quick then Common.quick_scale else Common.full_scale in
  Printf.printf "Whirlpool perf report — %s scale, %d run(s) per point\n%!"
    scale.Common.label runs;
  exhibits scale ~runs ~trace

let main quick runs trace output baseline_path warn_wall wall_tolerance =
  match baseline_path with
  | None ->
      let exhibits = run_exhibits quick runs trace in
      write_report ~quick (Option.value output ~default:"BENCH_core.json")
        exhibits;
      0
  | Some path -> (
      match (baseline_exhibits path, output) with
      | Error m, _ ->
          prerr_endline m;
          2
      | Ok _, Some o when same_file o path ->
          Printf.eprintf "-o %s would overwrite the baseline %s\n" o path;
          2
      | Ok baseline, _ ->
          let exhibits = run_exhibits quick runs trace in
          Option.iter (fun o -> write_report ~quick o exhibits) output;
          let { failures; warnings } =
            check ~warn_wall ~wall_tolerance baseline exhibits
          in
          List.iter (Printf.printf "WARN %s\n") warnings;
          List.iter (Printf.printf "FAIL %s\n") failures;
          if failures = [] then begin
            Printf.printf "baseline check passed (%s)\n" path;
            0
          end
          else begin
            Printf.printf "baseline check FAILED (%d regression(s))\n"
              (List.length failures);
            1
          end)

open Cmdliner

let quick =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Use the small document scale (CI smoke runs).")

let runs =
  Arg.(
    value & opt int 3
    & info [ "runs" ] ~docv:"N"
        ~doc:"Runs per measurement point; the median wall time is kept.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Run every exhibit under an enabled observability context \
           (span tracing + per-server profile); the counters checked \
           against the baseline must come out identical.")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:
          "Where to write the JSON report (default: BENCH_core.json; with \
           $(b,--check), no report unless this is given).")

let check_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "check" ] ~docv:"BASELINE"
        ~doc:
          "Compare against a committed baseline report: exit 1 on any \
           comparison/ops/matches-count regression or a wall-time regression \
           beyond the tolerance.")

let warn_wall =
  Arg.(
    value & flag
    & info [ "warn-wall" ]
        ~doc:
          "Demote wall-time regressions to warnings (counts still hard-fail) \
           — for CI machines with noisy clocks.")

let wall_tolerance =
  Arg.(
    value & opt float 15.0
    & info [ "wall-tolerance" ] ~docv:"PCT"
        ~doc:
          "Accepted wall-time regression in percent (default 15); a \
           regression must also exceed 1ms absolute to count.")

let cmd =
  Cmd.v
    (Cmd.info "report" ~doc:"machine-readable perf report + regression gate")
    Term.(
      const main $ quick $ runs $ trace $ output $ check_path $ warn_wall
      $ wall_tolerance)

let () = exit (Cmd.eval' cmd)
