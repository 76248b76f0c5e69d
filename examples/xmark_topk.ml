(* Command-line top-k search over generated XMark-style documents.

   Examples:

     dune exec examples/xmark_topk.exe -- --size 1000000 -k 15
     dune exec examples/xmark_topk.exe -- -q "//item[./name and ./incategory]" \
       --algo whirlpool-m --routing max_score -k 5 --verbose
*)

let default_query = "//item[./description/parlist and ./mailbox/mail/text]"

let run size seed query k algo routing normalization exact verbose =
  let algo =
    match Whirlpool.Engine.Config.algo_of_string algo with
    | Some a -> a
    | None -> prerr_endline ("unknown algorithm: " ^ algo); exit 2
  in
  let routing =
    match Whirlpool.Strategy.routing_of_string routing with
    | Some r -> r
    | None -> prerr_endline ("unknown routing: " ^ routing); exit 2
  in
  let normalization =
    match Wp_score.Score_table.normalization_of_string normalization with
    | Some n -> n
    | None -> prerr_endline ("unknown normalization: " ^ normalization); exit 2
  in
  let pattern =
    match Wp_pattern.Xpath_parser.parse_opt query with
    | Some p -> p
    | None -> prerr_endline ("cannot parse query: " ^ query); exit 2
  in
  let t0 = Whirlpool.Clock.now () in
  let doc = Wp_xmark.Generator.generate_doc ~seed ~target_bytes:size () in
  let idx = Wp_xml.Index.build doc in
  Printf.printf "Generated %d-node document (~%d bytes) in %.2fs\n"
    (Wp_xml.Doc.size doc)
    (Wp_xml.Printer.doc_serialized_size doc)
    (Whirlpool.Clock.now () -. t0);
  let config =
    if exact then Wp_relax.Relaxation.exact else Wp_relax.Relaxation.all
  in
  let plan = Whirlpool.Run.compile ~config ~normalization idx pattern in
  if verbose then Format.printf "%a@." Whirlpool.Plan.pp plan;
  let result =
    Wp_twig.Backend.run
      ~config:
        Whirlpool.Engine.Config.(
          default |> with_algo algo |> with_routing routing)
      plan ~k
  in
  Printf.printf "\nTop-%d answers for %s\n  (%s, %s routing, %s scores%s):\n" k
    (Wp_pattern.Pattern.to_string pattern)
    (Whirlpool.Engine.Config.algo_to_string algo)
    (Format.asprintf "%a" Whirlpool.Strategy.pp_routing routing)
    (Format.asprintf "%a" Wp_score.Score_table.pp_normalization normalization)
    (if exact then ", exact matching" else "");
  List.iteri
    (fun i (e : Whirlpool.Topk_set.entry) ->
      Printf.printf "  %2d. node %-7d %-18s score %.4f\n" (i + 1) e.root
        (Format.asprintf "%a" Wp_xml.Dewey.pp (Wp_xml.Doc.dewey doc e.root))
        e.score)
    result.answers;
  Printf.printf "\n%s\n" (Format.asprintf "%a" Whirlpool.Stats.pp result.stats)

open Cmdliner

let size =
  Arg.(value & opt int 500_000 & info [ "size" ] ~docv:"BYTES"
         ~doc:"Target document size in serialized bytes.")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.")

let query =
  Arg.(value & opt string default_query & info [ "q"; "query" ] ~docv:"XPATH"
         ~doc:"Tree-pattern query (the paper's XPath subset).")

let k = Arg.(value & opt int 10 & info [ "k" ] ~doc:"Number of answers.")

let algo =
  Arg.(value & opt string "whirlpool-s" & info [ "algo" ]
         ~doc:"Engine: whirlpool-s, whirlpool-m, lockstep, lockstep-noprun, twig.")

let routing =
  Arg.(value & opt string "min_alive" & info [ "routing" ]
         ~doc:"Adaptive routing: min_alive, max_score, min_score.")

let normalization =
  Arg.(value & opt string "sparse" & info [ "scores" ]
         ~doc:"Scoring normalization: raw, sparse, dense, random-sparse, random-dense.")

let exact =
  Arg.(value & flag & info [ "exact" ] ~doc:"Disable all relaxations.")

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the compiled plan.")

let cmd =
  let doc = "adaptive top-k XPath search over a generated XMark document" in
  Cmd.v
    (Cmd.info "xmark_topk" ~doc)
    Term.(
      const run $ size $ seed $ query $ k $ algo $ routing $ normalization
      $ exact $ verbose)

let () = exit (Cmd.eval cmd)
