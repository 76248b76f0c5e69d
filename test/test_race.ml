(* Raceway integration tests: schedule exploration of the real
   multithreaded engine.  The clean engine must survive many schedules
   with zero findings and oracle-equivalent answers; each injected
   defect must be caught by the detectors (not by a timeout); and
   exhaustive exploration of a tiny two-lock program must find its
   deadlock. *)

open Whirlpool
module C = Wp_analysis.Concurrency
module D = Wp_analysis.Diagnostic

let books_plan q = Run.compile Fixtures.books_index (Fixtures.parse q)

(* A small document where the premature-shutdown window of
   [Retire_early] is wide: near the end of the run the last in-flight
   match still has server hops left, so retiring it before re-enqueueing
   lets the stop flag fire with work outstanding.  The window needs
   enough answers in flight: with per-root seed bounds, Q1 at k=5 ends
   with no hop outstanding in every one of 100 schedules, at k=10 it
   does not. *)
let tiny_idx =
  lazy
    (Wp_xml.Index.build
       (Wp_xmark.Generator.generate_doc ~seed:3 ~target_bytes:8_000 ()))

let tiny_plan q = Run.compile (Lazy.force tiny_idx) (Fixtures.parse q)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let codes (r : Race.report) = List.map (fun (d : D.t) -> d.D.code) r.diagnostics

let has_code c r = List.mem c (codes r)

let check_clean msg (r : Race.report) =
  Alcotest.(check (list string)) msg [] (codes r)

(* --- clean engine --- *)

let test_clean_books () =
  check_clean "books q2c"
    (Race.check ~schedules:60 (books_plan Fixtures.q2c) ~k:3)

let test_clean_routings () =
  List.iter
    (fun routing ->
      check_clean "clean under every routing strategy"
        (Race.check ~schedules:25 ~routing (books_plan Fixtures.q2d) ~k:3))
    [ Strategy.Min_alive; Strategy.Max_score; Strategy.Min_score ];
  List.iter
    (fun queue_policy ->
      check_clean
        (Format.asprintf "clean under queue policy %a"
           Strategy.pp_queue_policy queue_policy)
        (Race.check ~schedules:40 ~queue_policy (books_plan Fixtures.q2d) ~k:3))
    Strategy.[ Fifo; Current_score; Max_next_score; Max_final_score ]

let test_clean_xmark () =
  check_clean "tiny xmark q1"
    (Race.check ~schedules:40 (tiny_plan Fixtures.q1) ~k:5)

(* --- injected defects: each must be caught by a detector --- *)

let test_inject_drop_topk_lock () =
  let r =
    Race.check ~schedules:60 ~faults:[ Engine_mt.Fault.Drop_topk_lock ]
      (books_plan Fixtures.q2c) ~k:3
  in
  Alcotest.(check bool) "unsynchronized topk.set access detected" true
    (has_code "race/unsynchronized" r);
  Alcotest.(check bool) "finding names the topk location" true
    (List.exists
       (fun (d : D.t) ->
         d.D.code = "race/unsynchronized"
         && contains ~sub:Engine_mt.topk_loc d.D.message)
       r.diagnostics)

let test_inject_skip_pending_incr () =
  let r =
    Race.check ~schedules:60
      ~faults:[ Engine_mt.Fault.Skip_pending_incr ]
      (books_plan Fixtures.q2c) ~k:3
  in
  Alcotest.(check bool) "pending counter defect detected" true
    (has_code "shutdown/pending-negative" r
    || has_code "shutdown/pending-nonzero" r)

let test_inject_retire_early () =
  let r =
    Race.check ~schedules:100
      ~faults:[ Engine_mt.Fault.Retire_early ]
      (tiny_plan Fixtures.q1) ~k:10
  in
  Alcotest.(check bool)
    "early shutdown detected (missing answers or leaked pending)" true
    (has_code "schedule/answer-mismatch" r
    || has_code "shutdown/pending-nonzero" r)

(* --- exhaustive exploration (Sched.explore) --- *)

(* Two fibers locking two mutexes in opposite orders: classic deadlock.
   Exhaustive depth-first exploration must terminate, find at least one
   deadlocked schedule, and the accumulated lock graph must contain the
   cycle. *)
let opposite_lock_program sync =
  let module S = (val sync : Sync.S) in
  let a = S.mutex "a" and b = S.mutex "b" in
  let t1 =
    S.spawn "t1" (fun () ->
        S.lock a; S.lock b; S.unlock b; S.unlock a)
  in
  let t2 =
    S.spawn "t2" (fun () ->
        S.lock b; S.lock a; S.unlock a; S.unlock b)
  in
  S.join t1;
  S.join t2
[@@wp.allow
  "lock-leak the opposite-order locking IS the deadlock under test; the \
   simulated mutexes live only inside the explored schedule"]

let test_explore_finds_deadlock () =
  let outcomes, complete =
    Sched.explore ~max_schedules:10_000 opposite_lock_program
  in
  Alcotest.(check bool) "schedule tree fully explored" true complete;
  Alcotest.(check bool) "several schedules" true (List.length outcomes > 1);
  Alcotest.(check bool) "at least one schedule deadlocks" true
    (List.exists (fun (o : unit Sched.outcome) -> o.Sched.blocked <> []) outcomes);
  Alcotest.(check bool) "and at least one completes" true
    (List.exists
       (fun (o : unit Sched.outcome) ->
         o.Sched.blocked = [] && o.Sched.value = Ok ())
       outcomes);
  let g = C.Lock_graph.create () in
  List.iter (fun (o : unit Sched.outcome) -> C.Lock_graph.add_trace g o.Sched.trace) outcomes;
  Alcotest.(check bool) "accumulated lock graph has the a/b cycle" true
    (List.exists
       (fun (d : D.t) -> d.D.code = "lock-order/cycle")
       (C.Lock_graph.check g))

let test_explore_deterministic () =
  (* Same program, same exploration: identical schedule count and
     choice sequences (the scheduler is a pure function of choices). *)
  let run () =
    let outcomes, _ = Sched.explore ~max_schedules:1_000 opposite_lock_program in
    List.map (fun (o : unit Sched.outcome) -> o.Sched.choices) outcomes
  in
  Alcotest.(check bool) "replayed exploration is identical" true
    (run () = run ())

let test_explore_engine_exhaustive () =
  (* Bounded exhaustive exploration of the engine itself on the books
     fixture: every completed schedule agrees with the oracle. *)
  let plan = books_plan Fixtures.q2d in
  let expected = Fixtures.sorted_scores (Engine.run plan ~k:3).Engine.answers in
  let outcomes, _complete =
    Sched.explore ~max_schedules:200 (fun sync ->
        let module S = (val sync : Sync.S) in
        let module E = Engine_mt.Make (S) in
        E.run plan ~k:3)
  in
  Alcotest.(check bool) "explored at least 200 schedules" true
    (List.length outcomes >= 200);
  List.iter
    (fun (o : Engine.result Sched.outcome) ->
      Alcotest.(check bool) "no deadlock" true (o.Sched.blocked = []);
      match o.Sched.value with
      | Ok res ->
          Fixtures.check_scores_equal ~msg:"exhaustive schedule agrees"
            expected
            (Fixtures.sorted_scores res.Engine.answers)
      | Error e -> raise e)
    outcomes

let suite =
  [
    Alcotest.test_case "clean: books" `Quick test_clean_books;
    Alcotest.test_case "clean: every routing" `Quick test_clean_routings;
    Alcotest.test_case "clean: tiny xmark" `Quick test_clean_xmark;
    Alcotest.test_case "inject: drop-topk-lock" `Quick
      test_inject_drop_topk_lock;
    Alcotest.test_case "inject: skip-pending-incr" `Quick
      test_inject_skip_pending_incr;
    Alcotest.test_case "inject: retire-early" `Quick
      test_inject_retire_early;
    Alcotest.test_case "explore: opposite locks deadlock" `Quick
      test_explore_finds_deadlock;
    Alcotest.test_case "explore: deterministic" `Quick
      test_explore_deterministic;
    Alcotest.test_case "explore: engine exhaustive prefix" `Quick
      test_explore_engine_exhaustive;
  ]
