(* The wp_cli exit-code contract, pinned end-to-end for the three
   analysis subcommands and for [profile]: 0 clean, 1 findings (lint
   or static-check diagnostics, a detected race), 2 usage or load
   errors.  Drives the
   real binary; the dune test stanza depends on ../bin/wp_cli.exe. *)

let build_root = Fixtures.build_root
let wp_cli = Filename.concat build_root "bin/wp_cli.exe"

let run args =
  Sys.command
    (Filename.quote_command wp_cli ~stdout:Filename.null ~stderr:Filename.null
       args)

(* The books corpus from test_support, serialized for the CLI. *)
let books_file =
  lazy
    (let file = Filename.temp_file "wp_books" ".xml" in
     let oc = open_out file in
     output_string oc (Wp_xml.Printer.doc_to_string Fixtures.books_doc);
     close_out oc;
     at_exit (fun () -> try Sys.remove file with Sys_error _ -> ());
     file)

let check_exit what expected args =
  Alcotest.(check int) what expected (run args)

let test_lint () =
  let books = Lazy.force books_file in
  check_exit "clean lint exits 0" 0 [ "lint"; "-q"; "/book[./title]"; books ];
  check_exit "lint findings exit 1" 1 [ "lint"; "-q"; "//zzz"; books ];
  check_exit "unparsable query exits 2" 2 [ "lint"; "-q"; "//(" ]

let test_race () =
  let books = Lazy.force books_file in
  let q = "/book[.//title = 'wodehouse' and .//publisher/name = 'psmith']" in
  check_exit "clean schedules exit 0" 0
    [ "race"; "-q"; q; books; "--schedules"; "5" ];
  check_exit "detected race exits 1" 1
    [
      "race"; "-q"; q; books; "--schedules"; "60"; "-k"; "3"; "--inject";
      "drop-topk-lock";
    ];
  check_exit "--schedules 0 exits 2" 2
    [
      "race"; "-q"; q; books; "--schedules"; "0"; "--inject"; "drop-topk-lock";
    ];
  check_exit "--schedules -3 exits 2" 2
    [ "race"; "-q"; q; books; "--schedules=-3" ];
  check_exit "unknown fault exits 2" 2
    [ "race"; "-q"; q; books; "--inject"; "no-such-fault" ]

let test_query_algo () =
  let books = Lazy.force books_file in
  List.iter
    (fun algo ->
      check_exit
        (Printf.sprintf "query --algo %s exits 0" algo)
        0
        [ "query"; books; "-q"; "/book[./title]"; "--algo"; algo ])
    [ "twig"; "lockstep"; "lockstep-noprun"; "whirlpool-m"; "whirlpool-s" ];
  check_exit "unknown algo exits 2" 2
    [ "query"; books; "-q"; "/book[./title]"; "--algo"; "quicksort" ];
  check_exit "query --threshold exits 0 on whirlpool-s" 0
    [ "query"; books; "-q"; "/book[./title]"; "--threshold"; "0.5" ];
  check_exit "query --threshold with --algo twig exits 2" 2
    [
      "query"; books; "-q"; "/book[./title]"; "--threshold"; "0.5"; "--algo";
      "twig";
    ]

(* XML and .wpidx are the only formats that load: a file with any other
   magic, here the old WPDOC snapshot's, goes to the XML parser and
   fails there as a load error. *)
let test_query_load () =
  let file = Filename.temp_file "wp_retired" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc ->
          output_string oc "WPDOC\001\000\000\000\003");
      check_exit "query on a WPDOC file exits 2" 2
        [ "query"; file; "-q"; "/book[./title]" ])

(* Exit code and stderr lines of one run. *)
let stderr_of args =
  let err = Filename.temp_file "wp_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Filename.quote_command wp_cli ~stdout:Filename.null ~stderr:err
             args)
      in
      (code, In_channel.with_open_bin err In_channel.input_lines))

(* Exit 2 with exactly one stderr line starting with [prefix]. *)
let check_usage_line ~prefix args =
  let what = String.concat " " args in
  match stderr_of args with
  | 2, [ line ] ->
      Alcotest.(check bool)
        (what ^ ": usage line " ^ prefix)
        true
        (String.starts_with ~prefix line)
  | code, lines ->
      Alcotest.failf "%s: exit %d, stderr %S" what code
        (String.concat "\n" lines)

(* The corpus of the [serve] cases does not exist: a check that ran
   after the load would report the load error instead, and none of them
   can leave a server running. *)
let missing_corpus = "/nonexistent/wp-cli-exits-corpus"

(* A non-positive count is a usage error on every subcommand and
   backend: exit 2 with one line naming the option, before any document
   loads, never an engine exception. *)
let test_positive_counts () =
  let books = Lazy.force books_file in
  let q = "/book[./title]" in
  let serve opt =
    [ "serve"; missing_corpus; "--socket"; "/nonexistent/wp.sock"; opt ^ "=0" ]
  in
  let loadgen opt = [ "loadgen"; missing_corpus; opt ^ "=0" ] in
  List.iter
    (fun (option, args) ->
      check_usage_line ~prefix:(option ^ " must be >= 1") args)
    ([
       ("-k", [ "query"; books; "-q"; q; "-k"; "0" ]);
       ("-k", [ "query"; books; "-q"; q; "-k-3"; "--threshold"; "0.5" ]);
       ("-k", [ "profile"; books; "-q"; q; "-k"; "0" ]);
       ("-k", [ "race"; "-q"; q; books; "-k"; "0" ]);
     ]
    @ List.map
        (fun algo ->
          ("-k", [ "query"; books; "-q"; q; "-k"; "0"; "--algo"; algo ]))
        [ "lockstep"; "lockstep-noprun"; "twig"; "whirlpool-m" ]
    @ List.map
        (fun opt -> (opt, serve opt))
        [ "--plan-cache"; "--queue-depth"; "--default-k"; "--workers" ]
    @ List.map
        (fun opt -> (opt, loadgen opt))
        [ "--workers"; "--queue-depth"; "--clients" ])

(* A closure past [relax --limit] is a usage error, not an uncaught
   exception. *)
let test_relax_limit () =
  let q3 =
    In_channel.with_open_bin
      (Filename.concat build_root "examples/queries/xmark-q3.xpath")
      In_channel.input_all
    |> String.trim
  in
  check_exit "relax within the limit exits 0" 0
    [ "relax"; "-q"; "/book[./title]" ];
  check_usage_line
    ~prefix:"relax: Relaxation.closure: limit exceeded: more than 50"
    [ "relax"; "-q"; q3; "--limit"; "50" ]

(* An unknown [--algo] or [--routing] is cmdliner's usage error (exit
   2, naming the value) on every subcommand that takes the option. *)
let test_unknown_enums () =
  let books = Lazy.force books_file in
  let q = "/book[./title]" in
  let check ~needle args =
    let what = String.concat " " args in
    match stderr_of args with
    | 2, lines ->
        Alcotest.(check bool) (what ^ ": " ^ needle) true
          (List.exists (Test_stats.contains ~needle) lines)
    | code, _ -> Alcotest.failf "%s: exit %d, expected 2" what code
  in
  List.iter
    (check ~needle:"unknown algorithm")
    (List.map
       (fun args -> args @ [ "--algo"; "quicksort" ])
       [
         [ "query"; books; "-q"; q ];
         [ "profile"; books; "-q"; q ];
         [ "serve"; missing_corpus; "--socket"; "/nonexistent/wp.sock" ];
         [ "loadgen"; missing_corpus ];
       ]);
  List.iter
    (check ~needle:"unknown routing")
    (List.map
       (fun args -> args @ [ "--routing"; "fastest" ])
       [
         [ "query"; books; "-q"; q ];
         [ "profile"; books; "-q"; q ];
         [ "race"; "-q"; q; books ];
       ])

(* A negative or non-finite [--deadline-ms] is a usage error on [serve]
   and [query] (local or [--connect]), before anything loads or
   connects; 0 is a valid, already expired deadline. *)
let test_deadline_ms () =
  let books = Lazy.force books_file in
  let q = "/book[./title]" in
  List.iter
    (fun v ->
      let opt = "--deadline-ms=" ^ v in
      List.iter
        (check_usage_line ~prefix:"--deadline-ms must be finite and >= 0")
        [
          [ "serve"; missing_corpus; "--socket"; "/nonexistent/wp.sock"; opt ];
          [ "query"; books; "-q"; q; opt ];
          [ "query"; "--connect"; "/nonexistent/wp.sock"; "-q"; q; opt ];
        ])
    [ "-1"; "inf"; "nan"; "1e400" ];
  check_exit "query --deadline-ms=0 runs" 0
    [ "query"; books; "-q"; q; "--deadline-ms=0" ]

(* A run's whole stdout, parsed as one JSON document; the exit code
   comes back too. *)
let stdout_json args =
  let out = Filename.temp_file "wp_cli" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Filename.quote_command wp_cli ~stdout:out ~stderr:Filename.null args)
      in
      (code, Wp_json.Json.of_string (In_channel.with_open_bin out In_channel.input_all)))

let profile_json args = stdout_json ("profile" :: "--json" :: args)

(* A local [query --json] prints the JSON document alone, in both the
   top-k and the threshold form. *)
let test_query_json () =
  let books = Lazy.force books_file in
  List.iter
    (fun (what, extra) ->
      match
        stdout_json
          ([ "query"; books; "-q"; "/book[./title]"; "--json" ] @ extra)
      with
      | 0, Ok json ->
          Alcotest.(check bool) (what ^ ": answers list") true
            (match Wp_json.Json.member "answers" json with
            | Some (Wp_json.Json.List (_ :: _)) -> true
            | _ -> false)
      | 0, Error e -> Alcotest.failf "%s: stdout is not JSON: %s" what e
      | code, _ -> Alcotest.failf "%s: query exited %d" what code)
    [ ("-k 3", [ "-k"; "3" ]); ("--threshold 0.5", [ "--threshold"; "0.5" ]) ]

(* Total engine events across a span-tree node and its descendants. *)
let rec span_events node =
  let count key f =
    match Wp_json.Json.member key node with
    | Some (Wp_json.Json.List xs) -> f xs
    | _ -> 0
  in
  count "events" List.length
  + count "children" (List.fold_left (fun n c -> n + span_events c) 0)

let test_profile () =
  let books = Lazy.force books_file in
  let q = "/book[./title and ./info/publisher]" in
  List.iter
    (fun (what, extra, algorithm) ->
      match profile_json ([ books; "-q"; q ] @ extra) with
      | 0, Ok json ->
          Alcotest.(check (option string))
            (what ^ ": canonical algorithm name")
            (Some algorithm)
            (match Wp_json.Json.member "algorithm" json with
            | Some (Wp_json.Json.String s) -> Some s
            | _ -> None);
          let events =
            match
              Option.bind (Wp_json.Json.member "spans" json)
                (Wp_json.Json.member "roots")
            with
            | Some (Wp_json.Json.List roots) ->
                List.fold_left (fun n r -> n + span_events r) 0 roots
            | _ -> 0
          in
          Alcotest.(check bool) (what ^ ": spans carry events") true
            (events > 0)
      | 0, Error e -> Alcotest.failf "%s: unparsable JSON: %s" what e
      | code, _ -> Alcotest.failf "%s: profile exited %d" what code)
    [
      ("whirlpool-s", [ "--algo"; "whirlpool-s" ], "whirlpool-s");
      ("ws", [ "--algo"; "ws" ], "whirlpool-s");
      ("whirlpool-m", [ "--algo"; "whirlpool-m" ], "whirlpool-m");
    ];
  check_exit "profile --algo twig exits 2" 2
    [ "profile"; books; "-q"; q; "--algo"; "twig" ];
  check_exit "profile --algo lockstep exits 2" 2
    [ "profile"; books; "-q"; q; "--algo"; "lockstep" ];
  check_exit "profile unknown algo exits 2" 2
    [ "profile"; books; "-q"; q; "--algo"; "quicksort" ];
  (* [--batch] went with bulk routing: cmdliner's unknown-option usage
     error, folded to exit 2. *)
  match stderr_of [ "profile"; books; "-q"; q; "--batch"; "4" ] with
  | 2, lines ->
      Alcotest.(check bool) "profile --batch: unknown option" true
        (List.exists
           (fun l ->
             Test_stats.contains ~needle:"unknown option" l
             && Test_stats.contains ~needle:"--batch" l)
           lines)
  | code, _ -> Alcotest.failf "profile --batch 4: exit %d, expected 2" code

let test_check () =
  check_exit "clean tree exits 0" 0 [ "check"; "--root"; build_root ];
  check_exit "fixture findings exit 1" 1
    [ "check"; "--root"; build_root; "--dirs"; "test/sentinel_fixtures" ];
  check_exit "missing tree exits 2" 2
    [ "check"; "--root"; "/nonexistent/whirlpool" ];
  (* One mode: a run with no flags includes the call-graph stages, so
     the cancellation-totality fixture is reported. *)
  let out = Filename.temp_file "wp_check" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Filename.quote_command wp_cli ~stdout:out ~stderr:Filename.null
             [
               "check"; "--root"; build_root; "--dirs"; "test/sentinel_fixtures";
               "--json";
             ])
      in
      Alcotest.(check int) "fixture scan exits 1" 1 code;
      let findings =
        match
          Result.map
            (Wp_json.Json.member "findings")
            (Wp_json.Json.of_string
               (In_channel.with_open_bin out In_channel.input_all))
        with
        | Ok (Some (Wp_json.Json.List fs)) -> fs
        | _ -> Alcotest.fail "check --json: no findings list"
      in
      let field key f =
        match Wp_json.Json.member key f with
        | Some (Wp_json.Json.String s) -> s
        | _ -> ""
      in
      Alcotest.(check bool) "fix_unbounded_loop.ml: sentinel/cancel-total"
        true
        (List.exists
           (fun f ->
             field "code" f = "sentinel/cancel-total"
             && String.starts_with
                  ~prefix:"test/sentinel_fixtures/fix_unbounded_loop.ml:"
                  (field "message" f))
           findings))

let suite =
  [
    Alcotest.test_case "lint exit codes" `Quick test_lint;
    Alcotest.test_case "race exit codes" `Quick test_race;
    Alcotest.test_case "query --algo exit codes" `Quick test_query_algo;
    Alcotest.test_case "query load errors" `Quick test_query_load;
    Alcotest.test_case "query --json stdout" `Quick test_query_json;
    Alcotest.test_case "check exit codes" `Quick test_check;
    Alcotest.test_case "profile exit codes and events" `Quick test_profile;
    Alcotest.test_case "non-positive counts" `Quick test_positive_counts;
    Alcotest.test_case "unknown --algo and --routing" `Quick
      test_unknown_enums;
    Alcotest.test_case "bad --deadline-ms" `Quick test_deadline_ms;
    Alcotest.test_case "relax past --limit" `Quick test_relax_limit;
  ]
