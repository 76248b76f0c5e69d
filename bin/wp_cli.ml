(* wp_cli — the Whirlpool command-line interface.

   Subcommands:
     generate   write an XMark-style document to a file
     query      run a top-k query against an XML file, or against a
                running server (--connect)
     explain    print the compiled plan and score table for a query
     relax      enumerate the relaxations of a query
     lint       statically analyze a query (and its plan) for defects
     race       explore Whirlpool-M schedules deterministically, checking
                lock order, data races and shutdown
     profile    run a query under tracing, print per-server cost breakdown
     serve      run the top-k query service on a Unix-domain socket
     ctl        ping/metrics/stop a running server (metrics as JSON or
                Prometheus text exposition via --format)
     loadgen    benchmark a server, writing BENCH_serve.json

   Exit codes are uniform across subcommands:
     0  success
     1  findings (lint/race diagnostics, shed requests)
     2  usage errors, unparsable input or I/O failure

   Examples:
     wp_cli generate -o /tmp/site.xml --size 1000000 --seed 7
     wp_cli query /tmp/site.xml -q "//item[./description/parlist]" -k 10
     wp_cli serve /tmp/corpus --socket /tmp/wp.sock --workers 4
     wp_cli query --connect /tmp/wp.sock -q "//item[./name]" -k 5
     wp_cli loadgen /tmp/corpus -q "//item[./name]" --duration 2
*)

open Cmdliner

let version = "1.2.0"

let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:"on findings: lint, race or static-check diagnostics, a shed \
            (overloaded) request.";
    Cmd.Exit.info 2
      ~doc:"on usage errors, unparsable queries or documents, and I/O \
            failures (including unreachable servers).";
  ]

let cmd_info name ~doc ?man () = Cmd.info name ~version ~exits ~doc ?man

let query_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "q"; "query" ] ~docv:"XPATH" ~doc:"Tree-pattern query.")

let parse_query q =
  match Wp_pattern.Xpath_parser.parse_opt q with
  | Some p -> p
  | None ->
      prerr_endline ("cannot parse query: " ^ q);
      exit 2

(* Counts that must be positive ([-k], [--batch], [--schedules], the
   serve sizes): the serve tier's [Service.resolve_k]/[resolve_batch]
   rule, as a usage error. *)
let require_positive name v =
  if v < 1 then begin
    Printf.eprintf "%s must be >= 1 (got %d)\n" name v;
    exit 2
  end

(* [--deadline-ms]: the service's rule for a request's [deadline_ms],
   as a usage error. *)
let require_deadline = function
  | Some ms when ms < 0.0 || not (Float.is_finite ms) ->
      Printf.eprintf "--deadline-ms must be finite and >= 0 (got %g)\n" ms;
      exit 2
  | _ -> ()

(* Documents load from XML or from a mapped index (.wpidx), detected by
   content — via the catalog's loader, so CLI and server read documents
   identically.  The load line goes to stderr, so a [--json] command's
   stdout is one JSON document. *)
let load_index path =
  let t0 = Whirlpool.Clock.now () in
  match Wp_serve.Catalog.read_index path with
  | Error m ->
      prerr_endline m;
      exit 2
  | Ok idx ->
      Printf.eprintf "Loaded %s: %d nodes in %.2fs\n" path
        (Wp_xml.Doc.size (Wp_xml.Index.doc idx))
        (Whirlpool.Clock.now () -. t0);
      idx

(* --- generate --- *)

let generate out size seed profile =
  let profile =
    match Wp_xmark.Generator.profile_of_string profile with
    | Some p -> p
    | None ->
        Printf.eprintf "unknown profile %S (default, rich or sparse)\n" profile;
        exit 2
  in
  let tree = Wp_xmark.Generator.generate ~profile ~seed ~target_bytes:size () in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Wp_xml.Printer.to_channel oc tree);
  Printf.printf "Wrote %s (%d bytes, %d elements)\n" out
    (Wp_xmark.Generator.tree_bytes tree)
    (Wp_xml.Tree.size tree)

let generate_cmd =
  let out =
    Arg.(
      value & opt string "site.xml"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let size =
    Arg.(
      value & opt int 1_000_000
      & info [ "size" ] ~docv:"BYTES" ~doc:"Target serialized size.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.") in
  let profile =
    Arg.(
      value & opt string "default"
      & info [ "profile" ] ~docv:"NAME"
          ~doc:
            "Item-structure profile: $(b,default), $(b,rich) \
             (content-dense items that dominate a merged top-k) or \
             $(b,sparse) (structure-poor shard filler) — mix them to \
             build skewed corpora for the sharding benchmarks.")
  in
  Cmd.v
    (cmd_info "generate" ~doc:"generate an XMark-style benchmark document" ())
    Term.(const generate $ out $ size $ seed $ profile)

(* --- query --- *)

(* Remote mode: ship the query to a running server and print its
   reply.  Parsing, planning and deadline enforcement all happen
   server-side.  With --stream (over protocol v2) each certified answer
   prints the moment its Part frame arrives, ahead of the final
   summary. *)
let remote_query socket q k deadline_ms algo routing doc stream json =
  let client =
    match Wp_serve.Client.connect socket with
    | Ok c -> c
    | Error e ->
        prerr_endline (Wp_serve.Client.error_to_string e);
        exit 2
  in
  if stream && Wp_serve.Client.version client < 2 then
    prerr_endline
      "note: server negotiated protocol v1; nothing will stream";
  let req =
    Wp_serve.Protocol.Query
      {
        id = 1;
        query = q;
        doc;
        k = Some k;
        deadline_ms;
        algo = Some algo;
        routing = Some routing;
        batch = None;
        use_cache = None;
        bound_push = None;
      }
  in
  let streamed = ref 0 in
  let on_part (a : Wp_serve.Protocol.answer) =
    incr streamed;
    if stream && not json then
      Printf.printf "  * %-20s %-16s score %.4f  (certified)\n%!" a.doc
        a.dewey a.score
  in
  let reply = Wp_serve.Client.stream client ~on_part req in
  Wp_serve.Client.close client;
  match reply with
  | Error e ->
      prerr_endline (Wp_serve.Client.error_to_string e);
      exit 2
  | Ok r -> (
      if json then
        Format.printf "%a@." Wp_json.Json.pp
          (Wp_serve.Protocol.response_to_json r);
      match r.status with
      | Wp_serve.Protocol.Error ->
          if not json then
            Printf.eprintf "error: %s\n"
              (Option.value r.error ~default:"unknown server error");
          exit 2
      | Wp_serve.Protocol.Overloaded ->
          if not json then prerr_endline "overloaded: request was shed";
          exit 1
      | Wp_serve.Protocol.Ok | Wp_serve.Protocol.Partial ->
          if not json then begin
            Printf.printf "Top-%d for %s%s:\n" k q
              (if r.status = Wp_serve.Protocol.Partial then
                 " (partial: deadline hit)"
               else "");
            List.iteri
              (fun i (a : Wp_serve.Protocol.answer) ->
                Printf.printf "%3d. %-20s %-16s score %.4f\n" (i + 1) a.doc
                  a.dewey a.score)
              r.answers;
            if stream && !streamed > 0 then
              Printf.printf "\n%d of %d answers streamed before the run \
                             finished\n"
                !streamed (List.length r.answers);
            Printf.printf "\nserver elapsed %.2f ms\n" r.elapsed_ms
          end)

let local_query path q k threshold algo routing exact explain json =
  let algo =
    match Whirlpool.Engine.Config.algo_of_string algo with
    | Some a -> a
    | None ->
        prerr_endline ("unknown algorithm: " ^ algo);
        exit 2
  in
  if threshold <> None && algo <> Whirlpool.Engine.Config.Whirlpool then begin
    prerr_endline "--threshold runs whirlpool-s only";
    exit 2
  end;
  let idx = load_index path in
  let pattern = parse_query q in
  let routing =
    match Whirlpool.Strategy.routing_of_string routing with
    | Some r -> r
    | None ->
        prerr_endline ("unknown routing: " ^ routing);
        exit 2
  in
  let config =
    if exact then Wp_relax.Relaxation.exact else Wp_relax.Relaxation.all
  in
  let plan = Whirlpool.Run.compile ~config idx pattern in
  let engine_config =
    Whirlpool.Engine.Config.(
      default |> with_routing routing |> with_algo algo)
  in
  let r =
    match threshold with
    | Some threshold ->
        Printf.printf "All answers above %.3f for %s:\n" threshold
          (Wp_pattern.Pattern.to_string pattern);
        Whirlpool.Engine.run_above ~config:engine_config plan ~threshold
    | None ->
        Printf.printf "Top-%d for %s:\n" k (Wp_pattern.Pattern.to_string pattern);
        Wp_twig.Backend.run ~config:engine_config plan ~k
  in
  let doc = Wp_xml.Index.doc idx in
  if json then
    Format.printf "%a@." Wp_json.Json.pp (Whirlpool.Answer.result_to_json plan r)
  else begin
    if explain then
      List.iter
        (fun a -> Format.printf "%a@." (Whirlpool.Answer.pp plan) a)
        (Whirlpool.Answer.of_result plan r)
    else
      List.iteri
        (fun i (e : Whirlpool.Topk_set.entry) ->
          Printf.printf "%3d. %-24s score %.4f\n" (i + 1)
            (Format.asprintf "%a" (Wp_xml.Doc.pp_node doc) e.root)
            e.score)
        r.answers;
    Printf.printf "\n%s\n" (Format.asprintf "%a" Whirlpool.Stats.pp r.stats)
  end

let query_run connect path q k threshold deadline_ms algo routing doc stream
    exact explain json =
  require_positive "-k" k;
  require_deadline deadline_ms;
  match connect with
  | Some socket ->
      if threshold <> None || exact || explain then begin
        prerr_endline
          "--threshold, --exact and --explain do not apply with --connect";
        exit 2
      end;
      remote_query socket q k deadline_ms algo routing doc stream json
  | None ->
      if stream then begin
        prerr_endline "--stream requires --connect";
        exit 2
      end;
      let path =
        match path with
        | Some p -> p
        | None ->
            prerr_endline "a document FILE is required without --connect";
            exit 2
      in
      local_query path q k threshold algo routing exact explain json

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCKET"
        ~doc:"Send the query to the server on this Unix-domain socket \
              instead of running it locally.")

let query_cmd =
  let path =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"XML document (required unless --connect is given).")
  in
  let k = Arg.(value & opt int 10 & info [ "k" ] ~doc:"Answers to return.") in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "With --connect: per-request deadline; an expired run \
             returns its current top-k flagged partial.")
  in
  let doc_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "doc" ] ~docv:"NAME"
          ~doc:
            "With --connect: catalog document to query; omitted, the \
             top-k is merged across the whole corpus.")
  in
  let algo =
    Arg.(
      value & opt string "whirlpool-s"
      & info [ "algo" ]
          ~doc:
            "whirlpool-s, whirlpool-m, lockstep, lockstep-noprun or \
             twig.")
  in
  let routing =
    Arg.(
      value & opt string "min_alive"
      & info [ "routing" ] ~doc:"min_alive, max_score or min_score.")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Disable relaxations.")
  in
  let threshold =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ]
          ~doc:"Return every answer scoring above this value instead of \
                the top-k (whirlpool-s only).")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Show per-binding detail (which nodes matched, how exactly).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the answers and statistics as JSON.")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "With --connect: print each answer the moment the server \
             certifies it (protocol v2 Part frames), before the final \
             summary.")
  in
  Cmd.v
    (cmd_info "query"
       ~doc:
         "run a top-k query against an XML file or .wpidx index, or against \
          a running server (--connect)"
       ())
    Term.(
      const query_run $ connect_arg $ path $ query_arg $ k $ threshold
      $ deadline_ms $ algo $ routing $ doc_name $ stream $ exact $ explain
      $ json)

(* --- index --- *)

let index_build path out =
  let t0 = Whirlpool.Clock.now () in
  let idx = load_index path in
  let doc = Wp_xml.Index.doc idx in
  let bytes = Wp_storage.Index_file.write out doc in
  Printf.printf "Wrote index %s (%d nodes, %d bytes) in %.2fs\n" out
    (Wp_xml.Doc.size doc) bytes
    (Whirlpool.Clock.now () -. t0)

let index_info path =
  match Wp_storage.Index_file.open_index path with
  | Error e ->
      prerr_endline (Wp_storage.Index_file.error_message e);
      exit 2
  | Ok h ->
      let i = Wp_storage.Index_file.info h in
      Printf.printf "%s: wpidx v%d\n" path Wp_storage.Index_file.version;
      Printf.printf "  nodes             %d\n" i.nodes;
      Printf.printf "  tags              %d\n" i.tags;
      Printf.printf "  content terms     %d\n" i.terms;
      Printf.printf "  value bytes       %d\n" i.value_bytes;
      Printf.printf "  content postings  %d\n" i.content_postings;
      Printf.printf "  file bytes        %d\n" i.file_bytes

let index_build_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"XML document.")
  in
  let out =
    Arg.(
      value & opt string "doc.wpidx"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Index file.")
  in
  Cmd.v
    (cmd_info "build"
       ~doc:"compact a document into a memory-mappable .wpidx index" ())
    Term.(const index_build $ path $ out)

let index_info_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:".wpidx index file.")
  in
  Cmd.v
    (cmd_info "info" ~doc:"validate a .wpidx header and print its counts" ())
    Term.(const index_info $ path)

let index_cmd =
  Cmd.group
    (cmd_info "index"
       ~doc:"build and inspect on-disk .wpidx indexes"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "A .wpidx file is the compacted, query-ready form of one \
              document: tag postings, preorder structure columns and a \
              content-term dictionary behind a checksummed header.  The \
              server and the query command memory-map it on open — O(1) \
              regardless of size, pages faulting in on demand — and \
              answer bit-identically to the in-memory index.";
         ]
       ())
    [ index_build_cmd; index_info_cmd ]

(* --- explain --- *)

let explain path q =
  let idx = load_index path in
  let pattern = parse_query q in
  let plan = Whirlpool.Run.compile idx pattern in
  Format.printf "%a@." Whirlpool.Plan.pp plan;
  Format.printf "@[<v>score table:@,%a@]@." Wp_score.Score_table.pp
    plan.scores

let explain_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"XML document.")
  in
  Cmd.v
    (cmd_info "explain" ~doc:"print the compiled plan for a query" ())
    Term.(const explain $ path $ query_arg)

(* --- relax --- *)

let relax q limit =
  let pattern = parse_query q in
  let relaxed =
    Wp_relax.Relaxation.closure ~limit Wp_relax.Relaxation.all pattern
  in
  Printf.printf "%d distinct relaxations of %s:\n" (List.length relaxed)
    (Wp_pattern.Pattern.to_string pattern);
  List.iter
    (fun p -> Printf.printf "  %s\n" (Wp_pattern.Pattern.to_string p))
    relaxed

let relax_cmd =
  let limit =
    Arg.(
      value & opt int 2000
      & info [ "limit" ] ~doc:"Abort beyond this many relaxations.")
  in
  Cmd.v
    (cmd_info "relax" ~doc:"enumerate the relaxations of a query" ())
    Term.(const relax $ query_arg $ limit)

(* --- lint --- *)

let diagnostic_to_json (d : Wp_analysis.Diagnostic.t) =
  let open Wp_json.Json in
  Obj
    [
      ("severity", String (Wp_analysis.Diagnostic.severity_label d.severity));
      ("code", String d.code);
      ("node", match d.node with Some n -> Int n | None -> Null);
      ("message", String d.message);
    ]

let lint q path exact max_lattice json =
  let pattern = parse_query q in
  let config =
    if exact then Wp_relax.Relaxation.exact else Wp_relax.Relaxation.all
  in
  let synopsis =
    Option.map
      (fun p ->
        let idx = load_index p in
        Wp_stats.Synopsis.build (Wp_xml.Index.doc idx))
      path
  in
  let diags =
    Wp_analysis.Lint.check ?synopsis ~max_lattice ~config pattern
  in
  if json then
    Format.printf "%a@." Wp_json.Json.pp
      (Wp_json.Json.Obj
         [
           ("query", Wp_json.Json.String (Wp_pattern.Pattern.to_string pattern));
           ( "errors",
             Wp_json.Json.Bool (Wp_analysis.Diagnostic.has_errors diags) );
           ( "diagnostics",
             Wp_json.Json.List (List.map diagnostic_to_json diags) );
         ])
  else begin
    Printf.printf "lint %s:\n" (Wp_pattern.Pattern.to_string pattern);
    if diags = [] then print_endline "  no findings"
    else
      List.iter
        (fun d ->
          Format.printf "  %a@." Wp_analysis.Diagnostic.pp d)
        diags
  end;
  if Wp_analysis.Diagnostic.has_errors diags then exit 1

let lint_cmd =
  let path =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "XML document or .wpidx index; when given, the analyzer also \
             checks the query's tag vocabulary, structural \
             satisfiability and static score bound against it.")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Lint against the exact \
                                               (no-relaxation) plan.")
  in
  let max_lattice =
    Arg.(
      value & opt int 2000
      & info [ "max-lattice" ] ~docv:"N"
          ~doc:
            "Skip the relaxation-lattice cross-check when the lattice \
             exceeds N labeled patterns.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as JSON.")
  in
  Cmd.v
    (cmd_info "lint"
       ~doc:"statically analyze a query and its relaxation plan"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the Whirlpool static analyzer over the query: \
              well-formedness, predicate redundancy, server-plan \
              consistency, relaxation-lattice cross-checks and (with a \
              document) vocabulary and satisfiability checks.  Exits 1 \
              when any error-severity finding is reported — the same \
              findings make the engines refuse the plan.";
         ]
       ())
    Term.(const lint $ query_arg $ path $ exact $ max_lattice $ json)

(* --- race --- *)

let race q path k schedules seed routing exact inject json =
  require_positive "-k" k;
  require_positive "--schedules" schedules;
  let idx = load_index path in
  let pattern = parse_query q in
  let routing =
    match Whirlpool.Strategy.routing_of_string routing with
    | Some r -> r
    | None ->
        prerr_endline ("unknown routing: " ^ routing);
        exit 2
  in
  let faults =
    List.map
      (fun name ->
        match Whirlpool.Engine_mt.Fault.of_string name with
        | Some f -> f
        | None ->
            Printf.eprintf "unknown fault: %s (known: %s)\n" name
              (String.concat ", "
                 (List.map Whirlpool.Engine_mt.Fault.to_string
                    Whirlpool.Engine_mt.Fault.all));
            exit 2)
      inject
  in
  let config =
    if exact then Wp_relax.Relaxation.exact else Wp_relax.Relaxation.all
  in
  let plan = Whirlpool.Run.compile ~config idx pattern in
  let report =
    Whirlpool.Race.check ~schedules ~seed ~routing ~faults plan ~k
  in
  if json then
    Format.printf "%a@." Wp_json.Json.pp
      (Wp_json.Json.Obj
         [
           ("query", Wp_json.Json.String (Wp_pattern.Pattern.to_string pattern));
           ("schedules", Wp_json.Json.Int report.schedules);
           ("steps", Wp_json.Json.Int report.steps);
           ( "findings",
             Wp_json.Json.Bool (report.diagnostics <> []) );
           ( "diagnostics",
             Wp_json.Json.List (List.map diagnostic_to_json report.diagnostics)
           );
         ])
  else begin
    Printf.printf "race %s:\n" (Wp_pattern.Pattern.to_string pattern);
    Format.printf "  %a@." Whirlpool.Race.pp_report report
  end;
  if report.diagnostics <> [] then exit 1

let race_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"XML document or .wpidx index.")
  in
  let k = Arg.(value & opt int 5 & info [ "k" ] ~doc:"Answers to return.") in
  let schedules =
    Arg.(
      value & opt int 200
      & info [ "schedules" ] ~docv:"N"
          ~doc:"Seeded-random schedules to explore.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~doc:"Base seed numbering the schedules.")
  in
  let routing =
    Arg.(
      value & opt string "min_alive"
      & info [ "routing" ] ~doc:"min_alive, max_score or min_score.")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Disable relaxations.")
  in
  let inject =
    Arg.(
      value & opt_all string []
      & info [ "inject" ] ~docv:"FAULT"
          ~doc:
            "Inject a known concurrency defect (drop-topk-lock, \
             retire-early, skip-pending-incr) to demonstrate detection; \
             repeatable.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  Cmd.v
    (cmd_info "race"
       ~doc:"explore Whirlpool-M schedules and check concurrency invariants"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the multithreaded engine under a deterministic \
              cooperative scheduler, exploring many seeded interleavings \
              of the same query.  Every schedule's answers are compared \
              with the single-threaded oracle, its trace passes \
              vector-clock race detection and shutdown-counter checks, \
              and lock-nesting edges accumulate into a lock-order graph \
              checked for cycles and hierarchy violations.  Exits 1 when \
              any schedule produces a finding.";
         ]
       ())
    Term.(
      const race $ query_arg $ path $ k $ schedules $ seed $ routing $ exact
      $ inject $ json)

(* --- check (the Sentinel static checks) --- *)

let certificate_to_json (c : Wp_analysis.Prove.certificate) =
  let module P = Wp_analysis.Prove in
  Wp_json.Json.Obj
    [
      ("subject", Wp_json.Json.String c.P.subject);
      ("certified", Wp_json.Json.Bool (P.certified c));
      ( "obligations",
        Wp_json.Json.List
          (List.map
             (fun (o : P.obligation) ->
               Wp_json.Json.Obj
                 [
                   ("id", Wp_json.Json.String o.P.oid);
                   ("claim", Wp_json.Json.String o.P.claim);
                   ( "status",
                     Wp_json.Json.String
                       (match o.P.verdict with
                       | P.Proved -> "proved"
                       | P.Refuted _ -> "refuted") );
                   ( "detail",
                     Wp_json.Json.String
                       (match o.P.verdict with
                       | P.Proved -> o.P.argument
                       | P.Refuted w -> w) );
                 ])
             c.P.obligations) );
    ]

let check_run root dirs interproc prove json =
  let root =
    match root with
    | Some r -> r
    | None ->
        if Sys.file_exists "_build/default" then "_build/default" else "."
  in
  let report = Wp_sentinel.Sentinel.run ?dirs ~interproc ~root () in
  if report.units = 0 && report.load_errors = [] then begin
    Printf.eprintf "check: no .cmt files under %s (build the tree first)\n"
      root;
    exit 2
  end;
  let certificates =
    if prove then Wp_analysis.Prove.check_shipped () else []
  in
  let findings =
    List.sort Wp_sentinel.Sentinel.compare_findings
      (report.diagnostics @ Wp_analysis.Prove.diagnostics certificates)
  in
  if json then
    Format.printf "%a@." Wp_json.Json.pp
      (Wp_json.Json.Obj
         ([
            ("units", Wp_json.Json.Int report.units);
            ("findings", Wp_json.Json.List (List.map diagnostic_to_json findings));
            ( "load_errors",
              Wp_json.Json.List
                (List.map (fun e -> Wp_json.Json.String e) report.load_errors)
            );
          ]
         @
         if prove then
           [
             ( "certificates",
               Wp_json.Json.List (List.map certificate_to_json certificates) );
           ]
         else []))
  else begin
    List.iter (fun e -> Printf.eprintf "check: %s\n" e) report.load_errors;
    List.iter
      (fun d -> Format.printf "%a@." Wp_analysis.Diagnostic.pp d)
      findings;
    if prove then
      List.iter
        (fun (c : Wp_analysis.Prove.certificate) ->
          Printf.printf "check: prove %s: %s\n" c.subject
            (if Wp_analysis.Prove.certified c then "certified" else "REFUTED"))
        certificates;
    Printf.printf "check: %d finding(s) in %d unit(s)\n" (List.length findings)
      report.units
  end;
  if report.load_errors <> [] then exit 2 else if findings <> [] then exit 1

let check_cmd =
  let root =
    Arg.(
      value
      & opt (some string) None
      & info [ "root" ] ~docv:"DIR"
          ~doc:
            "Build tree to scan for .cmt files (default: _build/default \
             when present, else the current directory).")
  in
  let dirs =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "dirs" ] ~docv:"D1,D2"
          ~doc:
            "Subdirectories of the root to scan (default: lib, bin, tools, \
             examples, bench).")
  in
  let interproc =
    Arg.(
      value & flag
      & info [ "interproc" ]
          ~doc:
            "Add the interprocedural stages: call-graph propagation of \
             blocking, allocation and lock-rank facts (a helper that \
             blocks is flagged at every call site holding a lock), and \
             the cancellation-totality rule (every suspect loop on a \
             serve path must consult should_stop or be statically \
             bounded).")
  in
  let prove =
    Arg.(
      value & flag
      & info [ "prove-bounds" ]
          ~doc:
            "Prove prune-soundness of every shipped scoring \
             configuration: Score_bound's upper bounds stay admissible \
             and every relaxation edge is score-monotone.  Non-provable \
             configurations become sentinel/prune-unsound findings.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit findings as JSON.")
  in
  Cmd.v
    (cmd_info "check"
       ~doc:"run the Sentinel static checks over the compiled tree"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Reads the typedtrees (.cmt files) dune wrote for the repo's \
              own sources and checks the lock-rank discipline, the \
              monotonic-clock discipline, hot-path allocation hygiene \
              ([@@wp.hot] functions), exception-safe lock sections \
              (Fun.protect) and wire-string totality of closed variants.  \
              $(b,--interproc) re-grounds the lock and allocation rules \
              on call-graph summaries and adds cancellation totality; \
              $(b,--prove-bounds) certifies prune-soundness of the \
              shipped scoring configs.  Findings are ordered by (file, \
              line, rule), so $(b,--json) output diffs are stable.  Exits \
              1 on any finding, 2 when cmts cannot be read.  Suppressions \
              require [@wp.allow \"rule justification\"].";
         ]
       ())
    Term.(const check_run $ root $ dirs $ interproc $ prove $ json)

(* --- serve --- *)

let load_corpus catalog paths =
  List.iter
    (fun path ->
      let r =
        if Sys.is_directory path then
          Result.map ignore (Wp_serve.Catalog.load_dir catalog path)
        else Result.map ignore (Wp_serve.Catalog.load_file catalog path)
      in
      match r with
      | Ok () -> ()
      | Error m ->
          prerr_endline m;
          exit 2)
    paths;
  match Wp_serve.Catalog.docs catalog with
  | [] ->
      prerr_endline "empty corpus: no documents loaded";
      exit 2
  | docs ->
      Printf.printf "Corpus: %d document(s), %d nodes\n" (List.length docs)
        (List.fold_left
           (fun a (d : Wp_serve.Catalog.doc) -> a + d.nodes)
           0 docs)

let relax_config relax_content =
  if relax_content then Wp_relax.Relaxation.with_content
  else Wp_relax.Relaxation.all

let serve_run corpus socket http workers queue_depth default_k deadline_ms
    plan_cache slow_query_ms shards relax_content algo =
  require_positive "--shards" shards;
  require_positive "--plan-cache" plan_cache;
  require_positive "--queue-depth" queue_depth;
  require_positive "--default-k" default_k;
  Option.iter (require_positive "--workers") workers;
  require_deadline deadline_ms;
  let algo =
    match Whirlpool.Engine.Config.algo_of_string algo with
    | Some a -> a
    | None ->
        prerr_endline ("unknown algorithm: " ^ algo);
        exit 2
  in
  let catalog =
    Wp_serve.Catalog.create ~shards ~plan_cache
      ~config:(relax_config relax_content) ()
  in
  load_corpus catalog corpus;
  let service =
    Wp_serve.Service.create ~default_k ?default_deadline_ms:deadline_ms
      ?slow_query_ms
      ~engine_config:Whirlpool.Engine.Config.(default |> with_algo algo)
      ~catalog ()
  in
  let on_ready server =
    let stop = Sys.Signal_handle (fun _ -> Wp_serve.Event.request_stop server) in
    Sys.set_signal Sys.sigint stop;
    Sys.set_signal Sys.sigterm stop;
    Printf.printf "Listening on %s%s\n%!" socket
      (match Wp_serve.Event.http_port server with
      | Some p -> Printf.sprintf " (http on 127.0.0.1:%d)" p
      | None -> "")
  in
  match
    Wp_serve.Event.serve ?workers ~queue_depth ?http ~on_ready ~socket ~service
      ()
  with
  | Ok () -> print_endline "Server stopped."
  | Error m ->
      prerr_endline m;
      exit 2

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/wp_serve.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let corpus =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"CORPUS"
          ~doc:
            "Documents to serve: XML files, .wpidx memory-mapped \
             indexes, or directories of them.")
  in
  let http =
    Arg.(
      value
      & opt (some int) None
      & info [ "http" ] ~docv:"PORT"
          ~doc:
            "Also serve the HTTP/JSON gateway on 127.0.0.1:PORT — GET \
             /healthz, GET /metrics (Prometheus), GET /metrics.json, \
             POST /query.")
  in
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains (default: cores - 1).")
  in
  let queue_depth =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission-control bound: at most N queries wait; beyond \
             it requests are shed with an overloaded reply.")
  in
  let default_k =
    Arg.(
      value & opt int 10
      & info [ "default-k" ] ~doc:"k when a request omits it.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline (none if omitted).")
  in
  let plan_cache =
    Arg.(
      value & opt int 128
      & info [ "plan-cache" ] ~docv:"N"
          ~doc:"Compiled-plan LRU capacity.")
  in
  let slow_query_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-query-ms" ] ~docv:"MS"
          ~doc:
            "Arm the slow-query log: requests at or above this latency \
             record their full span tree and per-server cost profile.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Partition the corpus into N shards (by document-name \
             hash); merged queries scatter one thread per non-empty \
             shard and gather their top-k, pushing the merged k-th \
             score back to running shards as a prune bound.")
  in
  let relax_content =
    Arg.(
      value & flag
      & info [ "relax-content" ]
          ~doc:
            "Token-relax content predicates ([= 'v']): partial token \
             matches earn a fractional tf-idf weight instead of being \
             rejected, spreading the score distribution.")
  in
  let algo =
    Arg.(
      value & opt string "whirlpool-s"
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:
            "Default backend for requests that omit one: whirlpool-s, \
             whirlpool-m, lockstep, lockstep-noprun or twig.")
  in
  Cmd.v
    (cmd_info "serve"
       ~doc:"serve top-k queries over a Unix-domain socket"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Loads the corpus once, keeps every document's index warm \
              and memoizes compiled plans, then answers length-prefixed \
              JSON queries concurrently on a bounded worker pool.  Each \
              request may carry a deadline: an expired run stops at the \
              next iteration boundary and returns its current top-k \
              flagged partial.  When the queue is full new queries are \
              shed with an overloaded reply rather than queued \
              unboundedly.  SIGINT/SIGTERM (or a stop request) shut \
              down gracefully, draining accepted work.";
         ]
       ())
    Term.(
      const serve_run $ corpus $ socket_arg $ http $ workers
      $ queue_depth $ default_k $ deadline_ms $ plan_cache $ slow_query_ms
      $ shards $ relax_content $ algo)

(* --- ctl --- *)

let ctl_run socket op format json =
  let format =
    match Wp_serve.Protocol.metrics_format_of_string format with
    | Some f -> f
    | None ->
        Printf.eprintf "unknown metrics format %S (known: json, prometheus)\n"
          format;
        exit 2
  in
  let req =
    match op with
    | "ping" -> Wp_serve.Protocol.Ping { id = 1 }
    | "metrics" -> Wp_serve.Protocol.Metrics { id = 1; format }
    | "stop" -> Wp_serve.Protocol.Stop { id = 1 }
    | other ->
        Printf.eprintf "unknown operation %S (known: ping, metrics, stop)\n"
          other;
        exit 2
  in
  let client =
    (* Control ops have buffered replies; v1 skips the Hello
       round-trip. *)
    match Wp_serve.Client.connect ~version:1 socket with
    | Ok c -> c
    | Error e ->
        prerr_endline (Wp_serve.Client.error_to_string e);
        exit 2
  in
  let reply = Wp_serve.Client.call client req in
  Wp_serve.Client.close client;
  match reply with
  | Error e ->
      prerr_endline (Wp_serve.Client.error_to_string e);
      exit 2
  | Ok r -> (
      match (r.metrics_text, r.metrics) with
      | Some text, _ when op = "metrics" ->
          (* Prometheus exposition text: print raw, ready to scrape. *)
          print_string text
      | _, Some m when op = "metrics" ->
          Format.printf "%a@." Wp_json.Json.pp m
      | _ ->
          if json then
            Format.printf "%a@." Wp_json.Json.pp
              (Wp_serve.Protocol.response_to_json r)
          else
            Printf.printf "%s: %s\n" op
              (Wp_serve.Protocol.status_to_string r.status))

let ctl_cmd =
  let op =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP" ~doc:"ping, metrics or stop.")
  in
  let format =
    Arg.(
      value & opt string "json"
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Metrics encoding: json (structured snapshot) or prometheus \
             (text exposition, printed raw).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the raw reply as JSON.")
  in
  Cmd.v
    (cmd_info "ctl" ~doc:"control a running server (ping, metrics, stop)" ())
    Term.(const ctl_run $ socket_arg $ op $ format $ json)

(* --- profile --- *)

(* Local run under an enabled observability context: exact per-server
   cost attribution plus the query's span tree. *)
let profile_run path q k algo routing batch exact show_spans json =
  require_positive "-k" k;
  require_positive "--batch" batch;
  let idx = load_index path in
  let pattern = parse_query q in
  let algo =
    match Whirlpool.Engine.Config.algo_of_string algo with
    | Some (Whirlpool.Engine.Config.(Whirlpool | Whirlpool_mt) as a) -> a
    | Some _ ->
        prerr_endline "profile supports whirlpool-s and whirlpool-m";
        exit 2
    | None ->
        prerr_endline ("unknown algorithm: " ^ algo);
        exit 2
  in
  let routing =
    match Whirlpool.Strategy.routing_of_string routing with
    | Some r -> r
    | None ->
        prerr_endline ("unknown routing: " ^ routing);
        exit 2
  in
  let relax =
    if exact then Wp_relax.Relaxation.exact else Wp_relax.Relaxation.all
  in
  let plan = Whirlpool.Run.compile ~config:relax idx pattern in
  let obs = Wp_obs.Obs.create () in
  let config =
    Whirlpool.Engine.Config.(
      default |> with_algo algo |> with_routing routing |> with_batch batch
      |> with_obs obs)
  in
  let r = Wp_twig.Backend.run ~config plan ~k in
  let algo_name = Whirlpool.Engine.Config.algo_to_string algo in
  if json then
    Format.printf "%a@." Wp_json.Json.pp
      (Wp_json.Json.Obj
         [
           ("query", Wp_json.Json.String (Wp_pattern.Pattern.to_string pattern));
           ("algorithm", Wp_json.Json.String algo_name);
           ("answers", Wp_json.Json.Int (List.length r.answers));
           ("stats", Whirlpool.Stats.to_json r.stats);
           ("profile", Wp_obs.Obs.profile_json obs);
           ("spans", Wp_obs.Obs.span_tree_json obs);
         ])
  else begin
    Printf.printf "Top-%d for %s (%s):\n" k
      (Wp_pattern.Pattern.to_string pattern)
      algo_name;
    List.iteri
      (fun i (e : Whirlpool.Topk_set.entry) ->
        Printf.printf "%3d. node %-10d score %.4f\n" (i + 1) e.root e.score)
      r.answers;
    Printf.printf "\nper-server cost breakdown:\n";
    Printf.printf "  %-6s %-14s %10s %12s %8s %10s\n" "server" "tag"
      "visits" "comparisons" "time ms" "ms/visit";
    List.iter
      (fun (server, (c : Wp_obs.Obs.server_cost)) ->
        let tag =
          if server >= 0 && server < Array.length plan.Whirlpool.Plan.specs
          then plan.Whirlpool.Plan.specs.(server).Wp_relax.Server_spec.tag
          else "?"
        in
        let ms = Int64.to_float c.time_ns /. 1e6 in
        let per_visit = if c.visits = 0 then 0.0 else ms /. float_of_int c.visits in
        Printf.printf "  %-6d %-14s %10d %12d %8.2f %10.4f\n" server tag
          c.visits c.comparisons ms per_visit)
      (Wp_obs.Obs.per_server obs);
    Printf.printf "\n%s\n" (Format.asprintf "%a" Whirlpool.Stats.pp r.stats);
    if show_spans then begin
      Printf.printf "\nspan tree:\n";
      Format.printf "%a@." Wp_json.Json.pp (Wp_obs.Obs.span_tree_json obs)
    end
  end

let profile_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"XML document or .wpidx index.")
  in
  let k = Arg.(value & opt int 10 & info [ "k" ] ~doc:"Answers to return.") in
  let algo =
    Arg.(
      value & opt string "whirlpool-s"
      & info [ "algo" ] ~doc:"whirlpool-s or whirlpool-m.")
  in
  let routing =
    Arg.(
      value & opt string "min_alive"
      & info [ "routing" ] ~doc:"min_alive, max_score or min_score.")
  in
  let batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"B"
          ~doc:"Partial matches routed per iteration (whirlpool-s).")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Disable relaxations.")
  in
  let spans =
    Arg.(
      value & flag
      & info [ "spans" ] ~doc:"Also print the query's span tree.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit stats, per-server profile and span tree as JSON.")
  in
  Cmd.v
    (cmd_info "profile"
       ~doc:"run a query under tracing and print its per-server cost profile"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the query locally with an enabled observability \
              context: every server visit is timed and attributed, and \
              the run's span tree (query, iteration batches, server \
              visits with their trace events) is collected.  The \
              breakdown shows, per server, the visits, comparisons \
              and wall time — where the query's cost actually went.";
         ]
       ())
    Term.(
      const profile_run $ path $ query_arg $ k $ algo $ routing $ batch
      $ exact $ spans $ json)

(* --- loadgen --- *)

let obj_fields = function Wp_json.Json.Obj fields -> fields | j -> [ ("value", j) ]

(* One spawned point.  A fresh catalog (its load time is the point's
   cold-open cost) and a fresh service per point, so every point starts
   with an empty plan cache and its metrics snapshot is its own.  The
   point is measured twice back-to-back against the same service: the
   first window starts cold, the second reuses the compiled plans
   (warm). *)
let loadgen_point ~corpus ~socket ~queries ~clients ~duration ~relax_content
    ~algo ~ttfa_query (shards, push, workers, queue_depth) =
  let catalog =
    Wp_serve.Catalog.create ~shards ~config:(relax_config relax_content) ()
  in
  let t0 = Whirlpool.Clock.now_ns () in
  load_corpus catalog corpus;
  let open_ms =
    Int64.to_float (Int64.sub (Whirlpool.Clock.now_ns ()) t0) /. 1e6
  in
  let service = Wp_serve.Service.create ~catalog () in
  let server, thread =
    match Wp_serve.Event.spawn ~workers ~queue_depth ~socket ~service () with
    | Ok st -> st
    | Error e ->
        prerr_endline e;
        exit 2
  in
  let bound_push = if push then None else Some false in
  let window () =
    Wp_serve.Loadgen.run ?algo ?bound_push ~socket ~queries ~clients
      ~duration_s:duration ()
  in
  let cold = window () in
  let warm = Result.bind cold (fun _ -> window ()) in
  (* Streamed time-to-first-answer over protocol v2.  Pin the first
     document: only single-document runs stream mid-query. *)
  let ttfa =
    Option.bind ttfa_query (fun query ->
        let doc =
          match Wp_serve.Catalog.docs catalog with
          | d :: _ -> Some d.Wp_serve.Catalog.name
          | [] -> None
        in
        match Wp_serve.Loadgen.ttfa_probe ?algo ?doc ~socket ~query () with
        | Ok j -> Some j
        | Error e ->
            Printf.eprintf "ttfa probe: %s\n" e;
            None)
  in
  Wp_serve.Event.request_stop server;
  Thread.join thread;
  match (cold, warm) with
  | Error e, _ | _, Error e ->
      prerr_endline e;
      exit 2
  | Ok cold, Ok warm ->
      Printf.printf
        "shards=%d push=%b workers=%d queue_depth=%d: cold %.0f req/s p50 \
         %.2fms p99 %.2fms | warm %.0f req/s p50 %.2fms p99 %.2fms  (%d ok, \
         %d partial, %d shed, %d errors)\n\
         %!"
        shards push workers queue_depth cold.throughput cold.p50_ms
        cold.p99_ms warm.throughput warm.p50_ms warm.p99_ms
        (cold.ok + warm.ok)
        (cold.partial + warm.partial)
        (cold.overloaded + warm.overloaded)
        (cold.errors + warm.errors);
      let open Wp_json.Json in
      [
        ("shards", Int shards);
        ("algo", String (Option.value algo ~default:"whirlpool-s"));
        ("bound_push", Bool push);
        ("workers", Int workers);
        ("queue_depth", Int queue_depth);
        ("corpus_open_ms", Float open_ms);
        ("cold", Wp_serve.Loadgen.point_to_json cold);
        ("warm", Wp_serve.Loadgen.point_to_json warm);
      ]
      @ (match ttfa with Some j -> [ ("ttfa", j) ] | None -> [])
      @ [ ("server_metrics", Wp_serve.Service.metrics_json service) ]

let loadgen_run connect corpus queries clients duration workers_list
    queue_depths shards_list push_list relax_content algo ttfa_query out =
  if queries = [] then begin
    prerr_endline "at least one -q query is required";
    exit 2
  end;
  (match algo with
  | Some a when Whirlpool.Engine.Config.algo_of_string a = None ->
      prerr_endline ("unknown algorithm: " ^ a);
      exit 2
  | _ -> ());
  if List.exists (fun s -> s < 1) shards_list then begin
    prerr_endline "--shards must be >= 1";
    exit 2
  end;
  let points =
    match connect with
    | Some socket -> (
        (* External server: one point, its pool shape is whatever the
           server was started with. *)
        match
          Wp_serve.Loadgen.report ?algo ~socket ~queries
            ~client_counts:[ clients ] ~duration_s:duration ()
        with
        | Ok report -> [ obj_fields report ]
        | Error e ->
            prerr_endline e;
            exit 2)
    | None ->
        if corpus = [] then begin
          prerr_endline "a CORPUS is required without --connect";
          exit 2
        end;
        let socket =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "wp-loadgen-%d.sock" (Unix.getpid ()))
        in
        (* One point per (shards x push x workers x queue-depth). *)
        let ( let* ) l f = List.concat_map f l in
        let grid =
          let* shards = shards_list in
          let* push = push_list in
          let* workers = workers_list in
          let* queue_depth = queue_depths in
          [ (shards, push, workers, queue_depth) ]
        in
        List.map
          (loadgen_point ~corpus ~socket ~queries ~clients ~duration
             ~relax_content ~algo ~ttfa_query)
          grid
  in
  let report =
    Wp_json.Json.Obj
      [
        ("benchmark", Wp_json.Json.String "whirlpool-serve");
        ("queries", Wp_json.Json.List
           (List.map (fun q -> Wp_json.Json.String q) queries));
        ("clients", Wp_json.Json.Int clients);
        ("duration_s_per_point", Wp_json.Json.Float duration);
        ("points", Wp_json.Json.List
           (List.map (fun f -> Wp_json.Json.Obj f) points));
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Wp_json.Json.to_string report);
      output_char oc '\n');
  Printf.printf "Wrote %s (%d point(s))\n" out (List.length points)

let loadgen_cmd =
  let corpus =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"CORPUS"
          ~doc:"Documents to serve (spawn mode, without --connect).")
  in
  let queries =
    Arg.(
      value
      & opt_all string [ "//item[./name]" ]
      & info [ "q"; "query" ] ~docv:"XPATH"
          ~doc:"Query to issue (repeatable; clients round-robin).")
  in
  let clients =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent closed-loop clients.")
  in
  let duration =
    Arg.(
      value & opt float 2.0
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Seconds per point.")
  in
  let ttfa_query =
    Arg.(
      value
      & opt (some string) None
      & info [ "ttfa-query" ] ~docv:"XPATH"
          ~doc:
            "After each point, stream this query once over protocol v2 \
             and record the client-side time-to-first-answer in the \
             point (field $(b,ttfa)).")
  in
  let workers_list =
    Arg.(
      value
      & opt_all int [ 2 ]
      & info [ "workers" ] ~docv:"N"
          ~doc:"Pool size to sweep (repeatable; spawn mode).")
  in
  let queue_depths =
    Arg.(
      value
      & opt_all int [ 64 ]
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Admission bound to sweep (repeatable; spawn mode).")
  in
  let shards_list =
    Arg.(
      value & opt_all int [ 1 ]
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Catalog shard count to sweep (repeatable; spawn mode). \
             Multi-shard points scatter each request across the shard \
             groups and gather a merged top-k.")
  in
  let push_list =
    Arg.(
      value & opt_all bool [ true ]
      & info [ "push" ] ~docv:"BOOL"
          ~doc:
            "Cross-shard bound pushing on/off to sweep (repeatable; \
             spawn mode).  $(b,--push true --push false) measures the \
             pushing win against the scatter-only baseline.")
  in
  let relax_content =
    Arg.(
      value & flag
      & info [ "relax-content" ]
          ~doc:
            "Token-relax content predicates server-side (spawn mode), \
             as $(b,wp_cli serve --relax-content).")
  in
  let out =
    Arg.(
      value & opt string "BENCH_serve.json"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Report file.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"SOCKET"
          ~doc:"Benchmark an already running server instead of \
                spawning one per point.")
  in
  let algo =
    Arg.(
      value
      & opt (some string) None
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:
            "Backend sent with every request (whirlpool-s, whirlpool-m, \
             lockstep, lockstep-noprun or twig); omitted, the server \
             default applies.")
  in
  Cmd.v
    (cmd_info "loadgen"
       ~doc:"benchmark the server, writing BENCH_serve.json"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Closed-loop load generator: each client holds one \
              connection and issues queries back-to-back.  Without \
              --connect it serves CORPUS itself and sweeps the \
              (workers x queue-depth) grid, one point per \
              combination, reporting throughput and client-side \
              p50/p95/p99 latency per point.";
         ]
       ())
    Term.(
      const loadgen_run $ connect $ corpus $ queries $ clients $ duration
      $ workers_list $ queue_depths $ shards_list $ push_list
      $ relax_content $ algo $ ttfa_query $ out)

let () =
  let doc = "adaptive top-k XPath matching (Whirlpool)" in
  let code =
    Cmd.eval
      (Cmd.group
         (Cmd.info "wp_cli" ~version ~exits ~doc)
         [
           generate_cmd; query_cmd; explain_cmd; relax_cmd; index_cmd;
           lint_cmd; race_cmd; check_cmd; profile_cmd; serve_cmd;
           ctl_cmd; loadgen_cmd;
         ])
  in
  (* Uniform exit vocabulary: cmdliner reports its own parse and
     internal errors as 124/125 — fold both into "usage or I/O". *)
  exit
    (if code = Cmd.Exit.cli_error || code = Cmd.Exit.internal_error then 2
     else code)
