(* Sentinel static-checker tests: every known-bad fixture in
   test/sentinel_fixtures produces exactly its expected diagnostic(s)
   — the interprocedural ones through the call-graph stage — the
   live production tree is
   clean under the full rule set, and the obs clock fix is pinned by a
   regression pair (current unit clean, old implementation — preserved
   verbatim in Fix_wall_clock — flagged). *)

module D = Wp_analysis.Diagnostic
module Discover = Wp_sentinel.Discover
module Sentinel = Wp_sentinel.Sentinel

let build_root = Fixtures.build_root

let fixture_cmt name =
  Filename.concat build_root
    ("test/sentinel_fixtures/.sentinel_fixtures.objs/byte/sentinel_fixtures__"
   ^ name ^ ".cmt")

let check_fixture name =
  match Discover.load (fixture_cmt name) with
  | Error e -> Alcotest.failf "cannot load fixture %s: %s" name e
  | Ok u -> Sentinel.check_unit u

let codes ds = List.map (fun (d : D.t) -> d.D.code) ds

let expect_codes name expected () =
  let ds = check_fixture name in
  Alcotest.(check (list string))
    (name ^ " produces exactly " ^ String.concat ", " expected)
    expected (codes ds);
  List.iter
    (fun (d : D.t) ->
      Alcotest.(check bool) (name ^ " finding is an error") true
        (d.D.severity = D.Error))
    ds

let expect_exactly name code = expect_codes name [ code ]

let test_lock_order = expect_exactly "Fix_lock_order" "sentinel/lock-rank"
let test_wall_clock = expect_exactly "Fix_wall_clock" "sentinel/clock"
let test_hot_alloc = expect_exactly "Fix_hot_alloc" "sentinel/hot-alloc"
let test_unprotected = expect_exactly "Fix_unprotected" "sentinel/lock-leak"
let test_wire_gap = expect_exactly "Fix_wire_gap" "sentinel/wire-total"
let test_blocking = expect_exactly "Fix_blocking" "sentinel/blocking-under-lock"
let test_allow = expect_exactly "Fix_allow" "sentinel/allow"

(* Satellite syscalls: connect, accept and recv each count as blocking
   (one finding per section, in line order). *)
let test_blocking_net =
  expect_codes "Fix_blocking_net"
    [
      "sentinel/blocking-under-lock";
      "sentinel/blocking-under-lock";
      "sentinel/blocking-under-lock";
    ]

(* The interprocedural fixtures: each body is clean on its own, and
   the call-graph stage finds exactly one defect through a call. *)
let test_interproc_block =
  expect_exactly "Fix_interproc_block" "sentinel/blocking-under-lock"

let test_interproc_alloc =
  expect_exactly "Fix_interproc_alloc" "sentinel/hot-alloc"

let test_interproc_rank =
  expect_exactly "Fix_interproc_rank" "sentinel/lock-rank"

(* A functor-local helper called unqualified: resolving [emit]
   against the enclosing functor is what finds the call. *)
let test_functor_rank = expect_exactly "Fix_functor_rank" "sentinel/lock-rank"

let test_unbounded_loop =
  expect_exactly "Fix_unbounded_loop" "sentinel/cancel-total"

(* The messages carry enough to act on: source, line, and the offending
   name — interprocedural ones also the witness chain. *)
let test_messages () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let msg name =
    match check_fixture name with
    | [ d ] -> d.D.message
    | ds -> Alcotest.failf "%s: expected one finding, got %d" name (List.length ds)
  in
  Alcotest.(check bool) "clock message names gettimeofday" true
    (contains (msg "Fix_wall_clock") "Unix.gettimeofday");
  Alcotest.(check bool) "clock message carries the source file" true
    (contains (msg "Fix_wall_clock") "fix_wall_clock.ml");
  Alcotest.(check bool) "hot-alloc message names the allocator" true
    (contains (msg "Fix_hot_alloc") "Array.copy");
  Alcotest.(check bool) "wire message names the missing constructor" true
    (contains (msg "Fix_wire_gap") "Gamma");
  Alcotest.(check bool) "blocking message names the syscall" true
    (contains (msg "Fix_blocking") "Unix.sleepf");
  Alcotest.(check bool) "interproc blocking message carries the witness" true
    (contains (msg "Fix_interproc_block") "Unix.sleepf");
  Alcotest.(check bool) "interproc alloc message carries the witness" true
    (contains (msg "Fix_interproc_alloc") "Array.copy");
  Alcotest.(check bool) "interproc rank message names both locks" true
    (contains (msg "Fix_interproc_rank") "topk.mutex"
    && contains (msg "Fix_interproc_rank") "serve.pool.mutex");
  Alcotest.(check bool) "functor-local rank message names the callee" true
    (contains (msg "Fix_functor_rank") "call emit acquires queue.*.mutex");
  Alcotest.(check bool) "totality message suggests the annotation" true
    (contains (msg "Fix_unbounded_loop") "wp.bounded")

(* The committed tree has zero findings under the full rule set: this
   is the same scan the @sentinel alias runs in CI. *)
let test_clean_tree () =
  let report = Sentinel.run ~root:build_root () in
  Alcotest.(check (list string)) "no load errors" [] report.Sentinel.load_errors;
  Alcotest.(check bool) "scanned at least the libraries" true
    (report.Sentinel.units > 0);
  List.iter (fun d -> Format.eprintf "unexpected: %a@." D.pp d)
    report.Sentinel.diagnostics;
  Alcotest.(check (list string)) "zero findings on the committed tree" []
    (codes report.Sentinel.diagnostics)

(* Findings come out ordered by (file, line, rule, message), so CI
   JSON diffs are stable no matter the discovery order. *)
let test_deterministic_order () =
  let ds =
    check_fixture "Fix_blocking_net" @ check_fixture "Fix_wall_clock"
    @ check_fixture "Fix_interproc_rank"
  in
  let sorted = List.sort Sentinel.compare_findings ds in
  let shuffled = List.sort Sentinel.compare_findings (List.rev ds) in
  Alcotest.(check (list string))
    "same order from any input permutation"
    (List.map (fun (d : D.t) -> d.D.message) sorted)
    (List.map (fun (d : D.t) -> d.D.message) shuffled);
  (* Within one file, line order. *)
  let net = check_fixture "Fix_blocking_net" in
  let lines =
    List.map
      (fun (d : D.t) ->
        match String.split_on_char ':' d.D.message with
        | _file :: line :: _ -> int_of_string line
        | _ -> Alcotest.failf "unparseable message: %s" d.D.message)
      net
  in
  Alcotest.(check (list int)) "line-sorted within a file"
    (List.sort compare lines) lines

(* Regression proof for the obs clock fix: the current Wp_obs.Clock
   unit is clean, while the pre-fix implementation (Fix_wall_clock is
   that code, verbatim) still trips the clock rule above. *)
let test_obs_clock_regression () =
  let path =
    Filename.concat build_root "lib/obs/.wp_obs.objs/byte/wp_obs__Clock.cmt"
  in
  match Discover.load path with
  | Error e -> Alcotest.failf "cannot load Wp_obs__Clock: %s" e
  | Ok u ->
      Alcotest.(check (list string)) "monotonic obs clock has no findings" []
        (codes (Sentinel.check_unit u))

let suite =
  [
    Alcotest.test_case "lock-rank fixture" `Quick test_lock_order;
    Alcotest.test_case "clock fixture" `Quick test_wall_clock;
    Alcotest.test_case "hot-alloc fixture" `Quick test_hot_alloc;
    Alcotest.test_case "lock-leak fixture" `Quick test_unprotected;
    Alcotest.test_case "wire-total fixture" `Quick test_wire_gap;
    Alcotest.test_case "blocking fixture" `Quick test_blocking;
    Alcotest.test_case "allow fixture" `Quick test_allow;
    Alcotest.test_case "blocking-net fixture" `Quick test_blocking_net;
    Alcotest.test_case "interproc blocking fixture" `Quick test_interproc_block;
    Alcotest.test_case "interproc alloc fixture" `Quick test_interproc_alloc;
    Alcotest.test_case "interproc rank fixture" `Quick test_interproc_rank;
    Alcotest.test_case "functor-local rank fixture" `Quick test_functor_rank;
    Alcotest.test_case "unbounded-loop fixture" `Quick test_unbounded_loop;
    Alcotest.test_case "finding messages" `Quick test_messages;
    Alcotest.test_case "deterministic order" `Quick test_deterministic_order;
    Alcotest.test_case "clean tree" `Quick test_clean_tree;
    Alcotest.test_case "obs clock regression" `Quick test_obs_clock_regression;
  ]
