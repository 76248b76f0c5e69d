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

(* Usage, parse and I/O errors: one line on stderr, exit 2. *)
let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt
let or_exit = function Ok v -> v | Error e -> die "%s" e

let client_or_exit r =
  or_exit (Result.map_error Wp_serve.Client.error_to_string r)

let parse_query q =
  match Wp_pattern.Xpath_parser.parse_opt q with
  | Some p -> p
  | None -> die "cannot parse query: %s" q

(* Counts that must be positive ([-k], [--schedules], the serve
   sizes): the serve tier's [Service.resolve_k] rule, as a usage
   error. *)
let require_positive name v =
  if v < 1 then die "%s must be >= 1 (got %d)" name v

(* [--deadline-ms]: the service's rule for a request's [deadline_ms],
   as a usage error. *)
let require_deadline = function
  | Some ms when ms < 0.0 || not (Float.is_finite ms) ->
      die "--deadline-ms must be finite and >= 0 (got %g)" ms
  | _ -> ()

(* [--algo] and [--routing], parsed once: an unknown value is
   cmdliner's usage error. *)
let enum_conv ~what of_string pp =
  Arg.conv'
    ( (fun s ->
        match of_string s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "unknown %s %S" what s)),
      pp )

let algo_conv =
  enum_conv ~what:"algorithm" Whirlpool.Engine.Config.algo_of_string
    (fun ppf a ->
      Format.pp_print_string ppf (Whirlpool.Engine.Config.algo_to_string a))

let routing_conv =
  enum_conv ~what:"routing" Whirlpool.Strategy.routing_of_string
    Whirlpool.Strategy.pp_routing

let algo_arg ~doc =
  Arg.(
    value
    & opt algo_conv Whirlpool.Engine.Config.Whirlpool
    & info [ "algo" ] ~docv:"ALGO" ~doc)

let routing_arg =
  Arg.(
    value
    & opt routing_conv Whirlpool.Strategy.Min_alive
    & info [ "routing" ] ~docv:"ROUTING" ~doc:"min_alive, max_score or min_score.")

(* Terms several subcommands share; help text that differs per command
   is the [~doc] argument. *)
let file_arg ~doc =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let opt_file_arg ~doc =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let k_arg default =
  Arg.(value & opt int default & info [ "k" ] ~doc:"Answers to return.")

let exact_arg ?(doc = "Disable relaxations.") () =
  Arg.(value & flag & info [ "exact" ] ~doc)

let json_arg ~doc = Arg.(value & flag & info [ "json" ] ~doc)

(* Documents load from XML or from a mapped index (.wpidx), detected by
   content — via the catalog's loader, so CLI and server read documents
   identically.  The load line goes to stderr, so a [--json] command's
   stdout is one JSON document. *)
let load_index path =
  let t0 = Whirlpool.Clock.now () in
  let idx = or_exit (Wp_serve.Catalog.read_index path) in
  Printf.eprintf "Loaded %s: %d nodes in %.2fs\n" path
    (Wp_xml.Doc.size (Wp_xml.Index.doc idx))
    (Whirlpool.Clock.now () -. t0);
  idx

let relaxations ~exact =
  if exact then Wp_relax.Relaxation.exact else Wp_relax.Relaxation.all

(* The local-run path of [query], [explain], [race] and [profile]:
   parse the query, load the document, compile the plan.  A query the
   analyzer refuses has no plan. *)
let compile_local ?(exact = false) path q =
  let pattern = parse_query q in
  let idx = load_index path in
  match Whirlpool.Run.compile ~config:(relaxations ~exact) idx pattern with
  | plan -> (idx, pattern, plan)
  | exception Wp_analysis.Lint.Rejected diags ->
      die "query rejected by lint: %s"
        (String.concat "; "
           (List.map (Format.asprintf "%a" Wp_analysis.Diagnostic.pp) diags))

(* --- generate --- *)

let generate out size seed profile =
  let profile =
    match Wp_xmark.Generator.profile_of_string profile with
    | Some p -> p
    | None -> die "unknown profile %S (default, rich or sparse)" profile
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
             $(b,sparse) (structure-poor filler) — mix them to build \
             skewed corpora.")
  in
  Cmd.v
    (cmd_info "generate" ~doc:"generate an XMark-style benchmark document" ())
    Term.(const generate $ out $ size $ seed $ profile)

(* --- query --- *)

(* Remote mode: ship the query to a running server and print its
   reply.  Parsing, planning and deadline enforcement all happen
   server-side.  With --stream each certified answer prints the moment
   its Part frame arrives, ahead of the final summary. *)
let remote_query socket q k deadline_ms algo routing doc stream json =
  let client = client_or_exit (Wp_serve.Client.connect socket) in
  let req =
    Wp_serve.Protocol.Query
      {
        id = 1;
        query = q;
        doc;
        k = Some k;
        deadline_ms;
        algo = Some (Whirlpool.Engine.Config.algo_to_string algo);
        routing =
          Some (Format.asprintf "%a" Whirlpool.Strategy.pp_routing routing);
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
  let r = client_or_exit reply in
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
      end

let local_query path q k threshold algo routing exact explain json =
  if threshold <> None && algo <> Whirlpool.Engine.Config.Whirlpool then
    die "--threshold runs whirlpool-s only";
  let idx, pattern, plan = compile_local ~exact path q in
  let engine_config =
    Whirlpool.Engine.Config.(
      default |> with_routing routing |> with_algo algo)
  in
  let r =
    match threshold with
    | Some threshold ->
        Whirlpool.Engine.run_above ~config:engine_config plan ~threshold
    | None -> Wp_twig.Backend.run ~config:engine_config plan ~k
  in
  let doc = Wp_xml.Index.doc idx in
  if json then
    Format.printf "%a@." Wp_json.Json.pp (Whirlpool.Answer.result_to_json plan r)
  else begin
    let shown = Wp_pattern.Pattern.to_string pattern in
    (match threshold with
    | Some threshold ->
        Printf.printf "All answers above %.3f for %s:\n" threshold shown
    | None -> Printf.printf "Top-%d for %s:\n" k shown);
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
      if threshold <> None || exact || explain then
        die "--threshold, --exact and --explain do not apply with --connect";
      remote_query socket q k deadline_ms algo routing doc stream json
  | None ->
      if stream then die "--stream requires --connect";
      let path =
        match path with
        | Some p -> p
        | None -> die "a document FILE is required without --connect"
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
    opt_file_arg ~doc:"XML document (required unless --connect is given)."
  in
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
    algo_arg
      ~doc:"whirlpool-s, whirlpool-m, lockstep, lockstep-noprun or twig."
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
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "With --connect: print each answer the moment the server \
             certifies it (Part frames), before the final summary.")
  in
  Cmd.v
    (cmd_info "query"
       ~doc:
         "run a top-k query against an XML file or .wpidx index, or against \
          a running server (--connect)"
       ())
    Term.(
      const query_run $ connect_arg $ path $ query_arg $ k_arg 10 $ threshold
      $ deadline_ms $ algo $ routing_arg $ doc_name $ stream $ exact_arg ()
      $ explain
      $ json_arg ~doc:"Emit the answers and statistics as JSON.")

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
  | Error e -> die "%s" (Wp_storage.Index_file.error_message e)
  | Ok h ->
      let i = Wp_storage.Index_file.info h in
      Printf.printf "%s: wpidx v%d\n" path Wp_storage.Index_file.version;
      Printf.printf "  nodes             %d\n" i.nodes;
      Printf.printf "  tags              %d\n" i.tags;
      Printf.printf "  value bytes       %d\n" i.value_bytes;
      Printf.printf "  file bytes        %d\n" i.file_bytes

let index_build_cmd =
  let out =
    Arg.(
      value & opt string "doc.wpidx"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Index file.")
  in
  Cmd.v
    (cmd_info "build"
       ~doc:"compact a document into a memory-mappable .wpidx index" ())
    Term.(const index_build $ file_arg ~doc:"XML document." $ out)

let index_info_cmd =
  Cmd.v
    (cmd_info "info" ~doc:"validate a .wpidx header and print its counts" ())
    Term.(const index_info $ file_arg ~doc:".wpidx index file.")

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
  let _, _, plan = compile_local path q in
  Format.printf "%a@." Whirlpool.Plan.pp plan;
  Format.printf "@[<v>score table:@,%a@]@." Wp_score.Score_table.pp
    plan.scores

let explain_cmd =
  Cmd.v
    (cmd_info "explain" ~doc:"print the compiled plan for a query" ())
    Term.(const explain $ file_arg ~doc:"XML document." $ query_arg)

(* --- relax --- *)

let relax q limit =
  let pattern = parse_query q in
  let relaxed =
    match Wp_relax.Relaxation.closure ~limit Wp_relax.Relaxation.all pattern with
    | relaxed -> relaxed
    | exception Failure msg ->
        (* [closure]'s one failure: the limit *)
        die "relax: %s: more than %d relaxations (raise --limit)" msg limit
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
  let config = relaxations ~exact in
  let guide =
    Option.map (fun p -> Wp_stats.Dataguide.of_index (load_index p)) path
  in
  let diags = Wp_analysis.Lint.check ?guide ~max_lattice ~config pattern in
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
    opt_file_arg
      ~doc:
        "XML document or .wpidx index; when given, the analyzer also \
         checks the query's tag vocabulary, structural satisfiability \
         and static score bound against it."
  in
  let max_lattice =
    Arg.(
      value & opt int 2000
      & info [ "max-lattice" ] ~docv:"N"
          ~doc:
            "Skip the relaxation-lattice cross-check when the lattice \
             exceeds N labeled patterns.")
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
    Term.(
      const lint $ query_arg $ path
      $ exact_arg ~doc:"Lint against the exact (no-relaxation) plan." ()
      $ max_lattice
      $ json_arg ~doc:"Emit diagnostics as JSON.")

(* --- race --- *)

let race q path k schedules seed routing exact inject json =
  require_positive "-k" k;
  require_positive "--schedules" schedules;
  let faults =
    List.map
      (fun name ->
        match Whirlpool.Engine_mt.Fault.of_string name with
        | Some f -> f
        | None ->
            die "unknown fault: %s (known: %s)" name
              (String.concat ", "
                 (List.map Whirlpool.Engine_mt.Fault.to_string
                    Whirlpool.Engine_mt.Fault.all)))
      inject
  in
  let _, pattern, plan = compile_local ~exact path q in
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
  let inject =
    Arg.(
      value & opt_all string []
      & info [ "inject" ] ~docv:"FAULT"
          ~doc:
            "Inject a known concurrency defect (drop-topk-lock, \
             retire-early, skip-pending-incr); repeatable.  A fault is \
             reported only when an explored schedule reaches its window, \
             which depends on the document, $(b,-k) and \
             $(b,--schedules): on a document where no schedule reaches \
             it the run exits 0.")
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
      const race $ query_arg
      $ file_arg ~doc:"XML document or .wpidx index."
      $ k_arg 5 $ schedules $ seed $ routing_arg $ exact_arg () $ inject
      $ json_arg ~doc:"Emit the report as JSON.")

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

let check_run root dirs json =
  let root =
    match root with
    | Some r -> r
    | None ->
        if Sys.file_exists "_build/default" then "_build/default" else "."
  in
  let report = Wp_sentinel.Sentinel.run ?dirs ~root () in
  if report.units = 0 && report.load_errors = [] then
    die "check: no .cmt files under %s (build the tree first)" root;
  let certificates = Wp_analysis.Prove.check_shipped () in
  let findings =
    List.sort Wp_sentinel.Sentinel.compare_findings
      (report.diagnostics @ Wp_analysis.Prove.diagnostics certificates)
  in
  if json then
    Format.printf "%a@." Wp_json.Json.pp
      (Wp_json.Json.Obj
         [
           ("units", Wp_json.Json.Int report.units);
           ("findings", Wp_json.Json.List (List.map diagnostic_to_json findings));
           ( "load_errors",
             Wp_json.Json.List
               (List.map (fun e -> Wp_json.Json.String e) report.load_errors) );
           ( "certificates",
             Wp_json.Json.List (List.map certificate_to_json certificates) );
         ])
  else begin
    List.iter (fun e -> Printf.eprintf "check: %s\n" e) report.load_errors;
    List.iter
      (fun d -> Format.printf "%a@." Wp_analysis.Diagnostic.pp d)
      findings;
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
            "Subdirectories of the root to scan (default: lib, bin, \
             examples, bench).")
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
              The lock and allocation rules also follow call-graph \
              summaries, cancellation totality is checked on every serve \
              path, and the prune-soundness of every shipped scoring \
              config is proved (non-provable ones are \
              sentinel/prune-unsound findings).  Findings are ordered by \
              (file, line, rule), so $(b,--json) output diffs are stable.  \
              Exits 1 on any finding, 2 when cmts cannot be read.  \
              Suppressions require [@wp.allow \"rule justification\"].";
         ]
       ())
    Term.(
      const check_run $ root $ dirs $ json_arg ~doc:"Emit findings as JSON.")

(* --- serve --- *)

let load_corpus catalog paths =
  List.iter
    (fun path ->
      or_exit
        (if Sys.is_directory path then
           Result.map ignore (Wp_serve.Catalog.load_dir catalog path)
         else Result.map ignore (Wp_serve.Catalog.load_file catalog path)))
    paths;
  match Wp_serve.Catalog.docs catalog with
  | [] -> die "empty corpus: no documents loaded"
  | docs ->
      Printf.printf "Corpus: %d document(s), %d nodes\n" (List.length docs)
        (List.fold_left
           (fun a (d : Wp_serve.Catalog.doc) -> a + d.nodes)
           0 docs)

let relax_config relax_content =
  if relax_content then Wp_relax.Relaxation.with_content
  else Wp_relax.Relaxation.all

let serve_run corpus socket http workers queue_depth default_k deadline_ms
    plan_cache slow_query_ms relax_content algo =
  require_positive "--plan-cache" plan_cache;
  require_positive "--queue-depth" queue_depth;
  require_positive "--default-k" default_k;
  Option.iter (require_positive "--workers") workers;
  require_deadline deadline_ms;
  let catalog =
    Wp_serve.Catalog.create ~plan_cache ~config:(relax_config relax_content) ()
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
  or_exit
    (Wp_serve.Event.serve ?workers ~queue_depth ?http ~on_ready ~socket
       ~service ());
  print_endline "Server stopped."

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
    algo_arg
      ~doc:
        "Default backend for requests that omit one: whirlpool-s, \
         whirlpool-m, lockstep, lockstep-noprun or twig."
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
      $ relax_content $ algo)

(* --- ctl --- *)

let ctl_run socket op format json =
  let format =
    match Wp_serve.Protocol.metrics_format_of_string format with
    | Some f -> f
    | None -> die "unknown metrics format %S (known: json, prometheus)" format
  in
  let req =
    match op with
    | "ping" -> Wp_serve.Protocol.Ping { id = 1 }
    | "metrics" -> Wp_serve.Protocol.Metrics { id = 1; format }
    | "stop" -> Wp_serve.Protocol.Stop { id = 1 }
    | other -> die "unknown operation %S (known: ping, metrics, stop)" other
  in
  let client = client_or_exit (Wp_serve.Client.connect socket) in
  let reply = Wp_serve.Client.call client req in
  Wp_serve.Client.close client;
  let r = client_or_exit reply in
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
          (Wp_serve.Protocol.status_to_string r.status)

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
  Cmd.v
    (cmd_info "ctl" ~doc:"control a running server (ping, metrics, stop)" ())
    Term.(
      const ctl_run $ socket_arg $ op $ format
      $ json_arg ~doc:"Emit the raw reply as JSON.")

(* --- profile --- *)

(* Local run under an enabled observability context: exact per-server
   cost attribution plus the query's span tree. *)
let profile_run path q k algo routing exact show_spans json =
  require_positive "-k" k;
  (match algo with
  | Whirlpool.Engine.Config.(Whirlpool | Whirlpool_mt) -> ()
  | _ -> die "profile supports whirlpool-s and whirlpool-m");
  let _, pattern, plan = compile_local ~exact path q in
  let obs = Wp_obs.Obs.create () in
  let config =
    Whirlpool.Engine.Config.(
      default |> with_algo algo |> with_routing routing |> with_obs obs)
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
           ("seed_classes", Wp_json.Json.Int (Whirlpool.Plan.n_classes plan));
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
    Printf.printf "seeds: %d built of %d live roots (%d root candidates) in \
                   %d bound classes\n"
      r.stats.seeds_materialized (Whirlpool.Plan.n_seeds plan)
      (Array.length plan.roots) (Whirlpool.Plan.n_classes plan);
    if show_spans then begin
      Printf.printf "\nspan tree:\n";
      Format.printf "%a@." Wp_json.Json.pp (Wp_obs.Obs.span_tree_json obs)
    end
  end

let profile_cmd =
  let algo = algo_arg ~doc:"whirlpool-s or whirlpool-m." in
  let spans =
    Arg.(
      value & flag
      & info [ "spans" ] ~doc:"Also print the query's span tree.")
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
              the run's span tree (the query root and one child per \
              server visit, with their trace events) is collected.  The \
              breakdown shows, per server, the visits, comparisons \
              and wall time — where the query's cost actually went.";
         ]
       ())
    Term.(
      const profile_run
      $ file_arg ~doc:"XML document or .wpidx index."
      $ query_arg $ k_arg 10 $ algo $ routing_arg $ exact_arg () $ spans
      $ json_arg ~doc:"Emit stats, per-server profile and span tree as JSON.")

(* --- loadgen --- *)

(* Measure one point against the server on [socket]: the windows, the
   TTFA probe and the metrics snapshot ({!Wp_serve.Loadgen.measure}),
   summarized on stdout as [label]. *)
let loadgen_measure ~label ~socket ~queries ~clients ~duration ~algo
    ~ttfa_query =
  match
    Wp_serve.Loadgen.measure ?algo ?ttfa_query ~socket ~queries
      ~clients ~duration_s:duration ()
  with
  | Error e -> Error e
  | Ok m ->
      let cold = m.cold and warm = m.warm in
      Printf.printf
        "%s: cold %.0f req/s p50 %.2fms p99 %.2fms | warm %.0f req/s p50 \
         %.2fms p99 %.2fms  (%d ok, %d partial, %d shed, %d errors)\n\
         %!"
        label cold.throughput cold.p50_ms cold.p99_ms warm.throughput
        warm.p50_ms warm.p99_ms (cold.ok + warm.ok)
        (cold.partial + warm.partial)
        (cold.overloaded + warm.overloaded)
        (cold.errors + warm.errors);
      Ok
        (( "algo",
           Wp_json.Json.String (Option.value algo ~default:"whirlpool-s") )
        :: Wp_serve.Loadgen.measured_fields m)

(* One spawned point.  A fresh catalog (its load time is the point's
   cold-open cost) and a fresh service per point, so every point starts
   with an empty plan cache and its metrics snapshot is its own: the
   first window starts cold, the second reuses the compiled plans
   (warm). *)
let loadgen_spawned ~corpus ~socket ~queries ~clients ~duration ~relax_content
    ~algo ~ttfa_query (workers, queue_depth) =
  let catalog =
    Wp_serve.Catalog.create ~config:(relax_config relax_content) ()
  in
  let t0 = Whirlpool.Clock.now_ns () in
  load_corpus catalog corpus;
  let open_ms =
    Int64.to_float (Int64.sub (Whirlpool.Clock.now_ns ()) t0) /. 1e6
  in
  let service = Wp_serve.Service.create ~catalog () in
  let server, thread =
    or_exit (Wp_serve.Event.spawn ~workers ~queue_depth ~socket ~service ())
  in
  let fields =
    loadgen_measure
      ~label:(Printf.sprintf "workers=%d queue_depth=%d" workers queue_depth)
      ~socket ~queries ~clients ~duration ~algo ~ttfa_query
  in
  Wp_serve.Event.request_stop server;
  Thread.join thread;
  Wp_json.Json.
    [
      ("workers", Int workers);
      ("queue_depth", Int queue_depth);
      ("corpus_open_ms", Float open_ms);
    ]
  @ or_exit fields

let loadgen_run connect corpus queries clients duration workers_list
    queue_depths relax_content algo ttfa_query out =
  if queries = [] then die "at least one -q query is required";
  require_positive "--clients" clients;
  List.iter (require_positive "--workers") workers_list;
  List.iter (require_positive "--queue-depth") queue_depths;
  let algo = Option.map Whirlpool.Engine.Config.algo_to_string algo in
  let points =
    match connect with
    | Some socket ->
        (* External server: one point, its pool shape is whatever the
           server was started with. *)
        [
          or_exit
            (loadgen_measure ~label:socket ~socket ~queries ~clients
               ~duration ~algo ~ttfa_query);
        ]
    | None ->
        if corpus = [] then die "a CORPUS is required without --connect";
        let socket =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "wp-loadgen-%d.sock" (Unix.getpid ()))
        in
        (* One point per (workers x queue-depth). *)
        List.concat_map
          (fun workers ->
            List.map
              (fun qd ->
                loadgen_spawned ~corpus ~socket ~queries ~clients ~duration
                  ~relax_content ~algo ~ttfa_query (workers, qd))
              queue_depths)
          workers_list
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
            "After each point, stream this query once and record the \
             client-side time-to-first-answer in the point (field \
             $(b,ttfa)).")
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
      & opt (some algo_conv) None
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
      $ workers_list $ queue_depths $ relax_content $ algo $ ttfa_query
      $ out)

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
