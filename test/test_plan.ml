open Whirlpool

let idx = Lazy.force Fixtures.xmark_index
let books = Fixtures.books_index
let parse = Fixtures.parse

let test_compile_shape () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  Alcotest.(check int) "servers = pattern nodes" 6 plan.n_servers;
  Alcotest.(check int) "full mask" 0b111111 plan.full_mask;
  Alcotest.(check int) "specs per node" 6 (Array.length plan.specs);
  Alcotest.(check int) "estimates per node" 6 (Array.length plan.est_fanout)

let test_admits_partial () =
  Alcotest.(check bool) "relaxed admits partials" true
    (Plan.admits_partial_answers (Run.compile idx (parse Fixtures.q1)));
  Alcotest.(check bool) "exact does not" false
    (Plan.admits_partial_answers
       (Run.compile ~config:Wp_relax.Relaxation.exact idx (parse Fixtures.q1)))

let test_root_candidates () =
  let plan = Run.compile books (parse "/book") in
  Alcotest.(check int) "three books" 3 (Array.length plan.Plan.roots);
  (* The synthetic document root never matches, even for its own tag. *)
  let plan = Run.compile books (parse "//bib") in
  Alcotest.(check int) "doc root excluded" 0
    (Array.length plan.Plan.roots)

let test_estimates_sane () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  for s = 1 to plan.n_servers - 1 do
    Alcotest.(check bool) "fanout non-negative" true (plan.est_fanout.(s) >= 0.0);
    Alcotest.(check bool) "p_exact within [0,1]" true
      (plan.est_p_exact.(s) >= 0.0 && plan.est_p_exact.(s) <= 1.0);
    Alcotest.(check bool) "p_empty within [0,1]" true
      (plan.est_p_empty.(s) >= 0.0 && plan.est_p_empty.(s) <= 1.0)
  done

let test_max_weight () =
  let plan =
    Run.compile ~normalization:Wp_score.Score_table.Sparse idx (parse Fixtures.q1)
  in
  for s = 0 to plan.n_servers - 1 do
    Alcotest.(check (float 1e-9)) "sparse max weight" 1.0 (Plan.max_weight plan s)
  done

(* A warm component table answers every statistic of a repeated
   compile, and the plan is the one an empty table gives. *)
let test_memo_second_compile () =
  let memo = Wp_score.Component_table.create () in
  let compile () = Plan.compile ~memo idx Wp_relax.Relaxation.all (parse Fixtures.q3) in
  let first = compile () in
  let after_first = Wp_score.Component_table.stats memo in
  Alcotest.(check bool) "first compile fills" true (after_first.misses > 0);
  let second = compile () in
  let after_second = Wp_score.Component_table.stats memo in
  Alcotest.(check int) "no miss on the second compile" after_first.misses
    after_second.misses;
  Alcotest.(check bool) "hits instead" true (after_second.hits > after_first.hits);
  Alcotest.(check int) "no new entries" after_first.size after_second.size;
  Alcotest.(check bool) "roots shared" true (first.roots == second.roots);
  Fixtures.check_same_statistics ~msg:"warm memo"
    (Plan.compile idx Wp_relax.Relaxation.all (parse Fixtures.q3))
    second

let test_oversized_pattern_rejected () =
  let rec deep n =
    if n = 0 then Wp_pattern.Pattern.n "x" []
    else Wp_pattern.Pattern.n "x" [ (Wp_pattern.Pattern.Pc, deep (n - 1)) ]
  in
  let pat = Wp_pattern.Pattern.of_spec (deep 80) in
  Alcotest.check_raises "bitmask limit"
    (Invalid_argument "Plan.compile: pattern too large for bitmask bookkeeping")
    (fun () -> ignore (Run.compile books pat))

let suite =
  [
    Alcotest.test_case "compile shape" `Quick test_compile_shape;
    Alcotest.test_case "admits partial" `Quick test_admits_partial;
    Alcotest.test_case "root candidates" `Quick test_root_candidates;
    Alcotest.test_case "estimates sane" `Quick test_estimates_sane;
    Alcotest.test_case "max weight" `Quick test_max_weight;
    Alcotest.test_case "warm memo second compile" `Quick
      test_memo_second_compile;
    Alcotest.test_case "oversized pattern" `Quick test_oversized_pattern_rejected;
  ]
