(* The wp_cli exit-code contract, pinned end-to-end for the three
   analysis subcommands and for [profile]: 0 clean, 1 findings (lint
   or static-check diagnostics, a detected race), 2 usage or load
   errors.  Drives the
   real binary; the dune test stanza depends on ../bin/wp_cli.exe. *)

let build_root = Filename.dirname (Sys.getcwd ())
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
  List.iter
    (fun (option, args) ->
      check_usage_line ~prefix:(option ^ " must be >= 1") args)
    ([
       ("-k", [ "query"; books; "-q"; q; "-k"; "0" ]);
       ("-k", [ "query"; books; "-q"; q; "-k-3"; "--threshold"; "0.5" ]);
       ("-k", [ "profile"; books; "-q"; q; "-k"; "0" ]);
       ("--batch", [ "profile"; books; "-q"; q; "--batch"; "0" ]);
       ("-k", [ "race"; "-q"; q; books; "-k"; "0" ]);
     ]
    @ List.map
        (fun algo ->
          ("-k", [ "query"; books; "-q"; q; "-k"; "0"; "--algo"; algo ]))
        [ "lockstep"; "lockstep-noprun"; "twig"; "whirlpool-m" ]
    @ List.map
        (fun opt -> (opt, serve opt))
        [
          "--plan-cache"; "--queue-depth"; "--default-k"; "--workers";
          "--shards";
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

(* [profile --json] on stdout, parsed; the exit code comes back too. *)
let profile_json args =
  let out = Filename.temp_file "wp_profile" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Filename.quote_command wp_cli ~stdout:out ~stderr:Filename.null
             ("profile" :: "--json" :: args))
      in
      (code, Wp_json.Json.of_string (In_channel.with_open_bin out In_channel.input_all)))

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
    [ "profile"; books; "-q"; q; "--algo"; "quicksort" ]

let test_check () =
  check_exit "clean tree exits 0" 0 [ "check"; "--root"; build_root ];
  check_exit "fixture findings exit 1" 1
    [ "check"; "--root"; build_root; "--dirs"; "test/sentinel_fixtures" ];
  check_exit "missing tree exits 2" 2
    [ "check"; "--root"; "/nonexistent/whirlpool" ]

let suite =
  [
    Alcotest.test_case "lint exit codes" `Quick test_lint;
    Alcotest.test_case "race exit codes" `Quick test_race;
    Alcotest.test_case "query --algo exit codes" `Quick test_query_algo;
    Alcotest.test_case "query load errors" `Quick test_query_load;
    Alcotest.test_case "check exit codes" `Quick test_check;
    Alcotest.test_case "profile exit codes and events" `Quick test_profile;
    Alcotest.test_case "non-positive -k and --batch" `Quick test_positive_counts;
    Alcotest.test_case "bad --deadline-ms" `Quick test_deadline_ms;
  ]
