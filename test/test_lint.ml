(* The static analyzer: accepted paper queries, the five defect classes
   (ill-formed, unsatisfiable, redundant, inconsistent plan, vocabulary
   miss), lattice cross-checks and the static score bound. *)

open Wp_analysis
module Pattern = Wp_pattern.Pattern
module Relaxation = Wp_relax.Relaxation
module Server_spec = Wp_relax.Server_spec
module Synopsis = Wp_stats.Synopsis

let parse = Fixtures.parse
let all = Relaxation.all
let exact = Relaxation.exact

let classes ds =
  List.sort_uniq String.compare (List.map Diagnostic.class_of ds)

let has_class c ds = List.mem c (classes ds)

let check_classes ~msg expected ds =
  Alcotest.(check (list string))
    (Printf.sprintf "%s (got: %s)" msg
       (String.concat "; "
          (List.map (Format.asprintf "%a" Diagnostic.pp) ds)))
    expected (classes ds)

(* --- accepted queries --- *)

let test_paper_queries_accepted () =
  List.iter
    (fun q ->
      let pat = parse q in
      List.iter
        (fun config ->
          let ds = Lint.check ~config pat in
          Alcotest.(check bool)
            (q ^ " has no errors")
            false
            (Diagnostic.has_errors ds))
        [ all; exact ];
      (* Under the paper's configuration the full pipeline is silent
         apart from infos. *)
      let noisy =
        List.filter
          (fun (d : Diagnostic.t) -> d.severity <> Diagnostic.Info)
          (Lint.check ~config:all pat)
      in
      check_classes ~msg:(q ^ " is clean") [] noisy)
    [
      Fixtures.q1; Fixtures.q2; Fixtures.q3; Fixtures.q2a; Fixtures.q2b;
      Fixtures.q2c; Fixtures.q2d;
    ]

let test_accepted_with_synopsis () =
  let syn = Synopsis.build (Lazy.force Fixtures.xmark_doc) in
  List.iter
    (fun q ->
      let ds = Lint.check ~synopsis:syn ~config:all (parse q) in
      Alcotest.(check bool) (q ^ " vs document: no errors") false
        (Diagnostic.has_errors ds);
      (* The bound info is always reported. *)
      Alcotest.(check bool)
        (q ^ " reports a static bound") true
        (List.exists
           (fun (d : Diagnostic.t) -> d.code = "score/static-bound")
           ds))
    [ Fixtures.q1; Fixtures.q2; Fixtures.q3 ]

(* --- defect class 1: ill-formed --- *)

let test_value_on_internal () =
  let pat =
    Pattern.of_spec
      (Pattern.n "book" [ (Pattern.Pc, Pattern.n ~value:"x" "info" [ (Pattern.Pc, Pattern.n "name" []) ]) ])
  in
  let ds = Lint.well_formedness pat in
  check_classes ~msg:"value on internal node" [ "ill-formed" ] ds;
  Alcotest.(check bool) "is an error" true (Diagnostic.has_errors ds);
  Alcotest.(check bool) "engine gate trips" true
    (match
       Lint.validate_exn ~config:all ~specs:(Server_spec.build all pat) pat
     with
    | () -> false
    | exception Lint.Rejected _ -> true)

let test_bad_tag () =
  let pat =
    Pattern.of_spec (Pattern.n "book" [ (Pattern.Pc, Pattern.n "ti tle" []) ])
  in
  check_classes ~msg:"tag with whitespace" [ "ill-formed" ]
    (Lint.well_formedness pat);
  (* The wildcard and ordinary tags are fine. *)
  check_classes ~msg:"wildcard ok" []
    (Lint.well_formedness (parse "//item[./*]"))

let test_empty_value_warns () =
  let pat =
    Pattern.of_spec (Pattern.n "book" [ (Pattern.Pc, Pattern.n ~value:"" "title" []) ])
  in
  let ds = Lint.well_formedness pat in
  check_classes ~msg:"empty value" [ "ill-formed" ] ds;
  Alcotest.(check bool) "only a warning" false (Diagnostic.has_errors ds)

(* --- defect class 2: redundant --- *)

let test_duplicate_predicate () =
  let ds = Lint.redundancy (parse "//item[./name and ./name]") in
  check_classes ~msg:"duplicate sibling" [ "redundant" ] ds;
  Alcotest.(check bool) "warning only" false (Diagnostic.has_errors ds)

let test_subsumed_predicate () =
  (* .//name admits every witness of ./name: the broader predicate never
     filters. *)
  let ds = Lint.redundancy (parse "//item[./name and .//name]") in
  check_classes ~msg:"subsumed sibling" [ "redundant" ] ds;
  (* Deep duplicates count too. *)
  let ds2 =
    Lint.redundancy (parse "//item[./description/parlist and ./description/parlist]")
  in
  check_classes ~msg:"duplicate subtree" [ "redundant" ] ds2;
  (* Distinct predicates are not redundant. *)
  check_classes ~msg:"distinct siblings clean" []
    (Lint.redundancy (parse Fixtures.q3))

(* --- defect class 3: inconsistent plan --- *)

let test_plan_tag_mismatch () =
  let pat = parse Fixtures.q1 in
  let specs = Array.copy (Server_spec.build all pat) in
  specs.(1) <- { (specs.(1)) with tag = "zzz" };
  let ds = Lint.plan_consistency ~config:all pat specs in
  Alcotest.(check bool) "tag mismatch is an error" true
    (Diagnostic.has_errors ds);
  Alcotest.(check bool) "plan class reported" true (has_class "plan" ds)

let test_plan_flag_mismatches () =
  let pat = parse Fixtures.q2 in
  let specs = Array.copy (Server_spec.build all pat) in
  (* Leaf deletion is on, so every non-root node must be optional. *)
  specs.(2) <- { (specs.(2)) with optional = false };
  Alcotest.(check bool) "optional-flag caught" true
    (has_class "plan" (Lint.plan_consistency ~config:all pat specs));
  (* A soft structural predicate is never legal. *)
  let specs = Array.copy (Server_spec.build all pat) in
  specs.(0) <-
    { (specs.(0)) with to_root = { (specs.(0)).to_root with hard = false } };
  Alcotest.(check bool) "hard-flag caught" true
    (has_class "plan" (Lint.plan_consistency ~config:all pat specs))

let test_plan_missing_conditional () =
  let pat = parse Fixtures.q2 in
  let specs = Array.copy (Server_spec.build all pat) in
  specs.(1) <-
    { (specs.(1)) with conditionals = List.tl (specs.(1)).conditionals };
  Alcotest.(check bool) "dropped conditional caught" true
    (has_class "plan" (Lint.plan_consistency ~config:all pat specs))

let test_plan_size_mismatch () =
  let pat = parse Fixtures.q1 in
  let specs = Server_spec.build all pat in
  let truncated = Array.sub specs 0 (Array.length specs - 1) in
  Alcotest.(check bool) "size mismatch caught" true
    (Diagnostic.has_errors (Lint.plan_consistency ~config:all pat truncated))

(* --- defect class 4: unsatisfiable --- *)

let test_contradictory_depth () =
  let pat = parse Fixtures.q1 in
  let specs = Array.copy (Server_spec.build all pat) in
  specs.(1) <-
    {
      (specs.(1)) with
      to_root =
        {
          (specs.(1)).to_root with
          exact = { Wp_relax.Relation.min_depth = 3; max_depth = Some 2 };
        };
    };
  let ds = Lint.plan_consistency ~config:all pat specs in
  Alcotest.(check bool) "contradictory bounds are an error" true
    (Diagnostic.has_errors ds);
  Alcotest.(check bool) "unsatisfiable class reported" true
    (has_class "unsatisfiable" ds)

let test_unsatisfiable_in_document () =
  (* Titles are leaves in every book: no (title, publisher) pair exists
     at any depth, so the predicate is structurally unsatisfiable. *)
  let syn = Synopsis.build Fixtures.books_doc in
  let ds =
    Lint.check ~synopsis:syn ~config:exact (parse "//title[./publisher]")
  in
  Alcotest.(check bool) "no-pairs is an error without leaf deletion" true
    (Diagnostic.has_errors ds);
  Alcotest.(check bool) "unsatisfiable class reported" true
    (has_class "unsatisfiable" ds);
  (* With leaf deletion the node can be dropped: degraded, not fatal. *)
  let ds = Lint.check ~synopsis:syn ~config:all (parse "//title[./publisher]") in
  Alcotest.(check bool) "downgraded to a warning with leaf deletion" false
    (Diagnostic.has_errors ds);
  Alcotest.(check bool) "still reported" true (has_class "unsatisfiable" ds)

(* --- defect class 5: vocabulary --- *)

let test_vocabulary_miss () =
  let syn = Synopsis.build Fixtures.books_doc in
  let ds = Lint.check ~synopsis:syn ~config:exact (parse "//book[./zzz]") in
  Alcotest.(check bool) "unknown tag is an error without leaf deletion" true
    (Diagnostic.has_errors ds);
  Alcotest.(check bool) "vocabulary class reported" true
    (has_class "vocabulary" ds);
  let ds = Lint.check ~synopsis:syn ~config:all (parse "//book[./zzz]") in
  Alcotest.(check bool) "deletable node downgrades to warning" false
    (Diagnostic.has_errors ds);
  (* An unknown root tag is always fatal. *)
  let ds = Lint.check ~synopsis:syn ~config:all (parse "//zzz[./title]") in
  Alcotest.(check bool) "unknown root tag is an error" true
    (Diagnostic.has_errors ds)

(* --- lattice cross-check --- *)

let test_lattice_clean_on_paper_config () =
  List.iter
    (fun q ->
      let pat = parse q in
      let specs = Server_spec.build all pat in
      check_classes ~msg:(q ^ " lattice clean")
        []
        (Lint.lattice_consistency ~config:all pat specs))
    [ "/book[./title]"; "//item[./name]"; Fixtures.q1; Fixtures.q2a; Fixtures.q2d ]

let test_lattice_escape () =
  (* Specs admitting only the exact relations cannot cover the
     relaxations the configuration enables: every relaxed placement
     escapes. *)
  let pat = parse "/book[./info/publisher]" in
  let specs_exact = Server_spec.build exact pat in
  let ds = Lint.lattice_consistency ~config:all pat specs_exact in
  Alcotest.(check bool) "escape reported" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.code = "plan/lattice-escape")
       ds);
  Alcotest.(check bool) "escape is an error" true (Diagnostic.has_errors ds)

let test_lattice_limit () =
  let pat = parse Fixtures.q3 in
  let specs = Server_spec.build all pat in
  let ds = Lint.lattice_consistency ~max_lattice:3 ~config:all pat specs in
  check_classes ~msg:"oversized lattice skipped with an info" [ "plan" ] ds;
  Alcotest.(check bool) "skip is not an error" false (Diagnostic.has_errors ds)

(* --- compile gate --- *)

let test_compile_rejects () =
  (* Compile runs the gate, so a refused query never becomes a plan;
     a valid one compiles and runs. *)
  let idx = Fixtures.books_index in
  Alcotest.(check bool) "Plan.compile rejects" true
    (match Whirlpool.Run.compile idx (parse "//a[./b[./c] = 'x']") with
    | _ -> false
    | exception Lint.Rejected _ -> true);
  let plan = Whirlpool.Run.compile idx (parse Fixtures.q2d) in
  Alcotest.(check bool) "valid plan runs" true
    ((Whirlpool.Engine.run plan ~k:3).answers <> [])

(* --- static score bound --- *)

let test_score_bound_dominates_answers () =
  List.iter
    (fun (idx, doc, q) ->
      let syn = Synopsis.build doc in
      let pat = parse q in
      let plan = Whirlpool.Run.compile ~normalization:Wp_score.Score_table.Raw idx pat in
      let bound = Score_bound.of_pattern ~config:all syn pat in
      let r = Whirlpool.Engine.run plan ~k:5 in
      List.iter
        (fun (e : Whirlpool.Topk_set.entry) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: score %.4f within static bound %.4f" q
               e.score bound)
            true
            (e.score <= bound +. 1e-9))
        r.answers)
    [
      (Fixtures.books_index, Fixtures.books_doc, Fixtures.q2d);
      (Fixtures.books_index, Fixtures.books_doc, "/book[./title and ./price]");
      ( Lazy.force Fixtures.xmark_index,
        Lazy.force Fixtures.xmark_doc,
        Fixtures.q1 );
    ]

(* --- diagnostics plumbing --- *)

let test_diagnostic_order () =
  let w = Diagnostic.warningf "redundant/x" "w" in
  let e = Diagnostic.errorf ~node:3 "plan/x" "e" in
  let i = Diagnostic.infof "score/x" "i" in
  let sorted = Diagnostic.sort [ w; i; e ] in
  Alcotest.(check (list string))
    "errors first"
    [ "error"; "warning"; "info" ]
    (List.map
       (fun (d : Diagnostic.t) -> Diagnostic.severity_label d.severity)
       sorted);
  Alcotest.(check string) "class_of" "plan" (Diagnostic.class_of e);
  Alcotest.(check bool) "has_errors" true (Diagnostic.has_errors [ w; e ]);
  Alcotest.(check bool) "errors filters" true
    (List.for_all
       (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error)
       (Diagnostic.errors [ w; i; e ]))

let suite =
  [
    Alcotest.test_case "paper queries accepted" `Quick test_paper_queries_accepted;
    Alcotest.test_case "accepted with synopsis" `Quick test_accepted_with_synopsis;
    Alcotest.test_case "value on internal node" `Quick test_value_on_internal;
    Alcotest.test_case "bad tag" `Quick test_bad_tag;
    Alcotest.test_case "empty value warns" `Quick test_empty_value_warns;
    Alcotest.test_case "duplicate predicate" `Quick test_duplicate_predicate;
    Alcotest.test_case "subsumed predicate" `Quick test_subsumed_predicate;
    Alcotest.test_case "plan tag mismatch" `Quick test_plan_tag_mismatch;
    Alcotest.test_case "plan flag mismatches" `Quick test_plan_flag_mismatches;
    Alcotest.test_case "plan missing conditional" `Quick test_plan_missing_conditional;
    Alcotest.test_case "plan size mismatch" `Quick test_plan_size_mismatch;
    Alcotest.test_case "contradictory depth" `Quick test_contradictory_depth;
    Alcotest.test_case "unsatisfiable in document" `Quick test_unsatisfiable_in_document;
    Alcotest.test_case "vocabulary miss" `Quick test_vocabulary_miss;
    Alcotest.test_case "lattice clean on paper config" `Quick test_lattice_clean_on_paper_config;
    Alcotest.test_case "lattice escape" `Quick test_lattice_escape;
    Alcotest.test_case "lattice limit" `Quick test_lattice_limit;
    Alcotest.test_case "compile rejects refused query" `Quick test_compile_rejects;
    Alcotest.test_case "score bound dominates answers" `Quick test_score_bound_dominates_answers;
    Alcotest.test_case "diagnostic order" `Quick test_diagnostic_order;
  ]
