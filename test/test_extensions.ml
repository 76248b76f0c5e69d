(* Tests for the extension features: threshold queries and wildcard
   steps. *)

open Whirlpool

let idx = Lazy.force Fixtures.xmark_index
let parse = Fixtures.parse

let test_run_above_matches_noprun () =
  let plan = Run.compile idx (parse Fixtures.q1) in
  (* Reference: all completed matches of the no-pruning run, filtered
     (k larger than any possible answer count). *)
  let noprun = Lockstep.run ~prune:false plan ~k:1_000_000 in
  List.iter
    (fun threshold ->
      let expected =
        List.filter
          (fun (e : Topk_set.entry) -> e.score > threshold)
          noprun.answers
      in
      let r = Engine.run_above plan ~threshold in
      Fixtures.check_scores_equal
        ~msg:(Printf.sprintf "threshold %.2f" threshold)
        (Fixtures.sorted_scores expected)
        (Fixtures.sorted_scores r.answers))
    [ 0.5; 1.5; 2.5; 2.99 ]

let test_run_above_extremes () =
  let plan = Run.compile idx (parse Fixtures.q1) in
  let all = Engine.run_above plan ~threshold:neg_infinity in
  Alcotest.(check int) "below any score: every root answers"
    (Array.length plan.Plan.roots)
    (List.length all.answers);
  let none = Engine.run_above plan ~threshold:infinity in
  Alcotest.(check int) "above any score: nothing" 0 (List.length none.answers);
  Alcotest.(check bool) "impossible threshold prunes everything early" true
    (none.stats.server_ops <= 1)

let test_run_above_sorted () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let r = Engine.run_above plan ~threshold:3.0 in
  let scores = List.map (fun (e : Topk_set.entry) -> e.score) r.answers in
  let rec sorted = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a >= b && sorted rest
  in
  Alcotest.(check bool) "best first" true (sorted scores);
  List.iter
    (fun s -> Alcotest.(check bool) "above threshold" true (s > 3.0))
    scores

let test_wildcard_parsing () =
  let p = parse "//item[./*]" in
  Alcotest.(check string) "wildcard tag" "*" (Wp_pattern.Pattern.tag p 1);
  let p = parse "//*[./name]" in
  Alcotest.(check string) "wildcard root" "*" (Wp_pattern.Pattern.tag p 0)

let test_wildcard_matching () =
  let books = Fixtures.books_index in
  (* //book[./*] — every book has some child. *)
  Alcotest.(check int) "books with any child" 3
    (List.length (Wp_pattern.Matcher.matching_roots books (parse "//book[./*]")));
  (* //*[./publisher] — nodes with a publisher child: book (b) and
     book (a)'s info. *)
  Alcotest.(check int) "publisher parents" 2
    (List.length
       (Wp_pattern.Matcher.matching_roots books (parse "//*[./publisher]")));
  (* A wildcard chain: //book[./*/name] — only book (b) has a name at
     depth exactly 2 (book (a)'s name sits at depth 3). *)
  Alcotest.(check int) "grandchild name via wildcard" 1
    (List.length
       (Wp_pattern.Matcher.matching_roots books (parse "//book[./*/name]")))

let test_wildcard_engine () =
  let plan = Run.compile idx (parse "//item[./* and ./name]") in
  let r = Engine.run plan ~k:5 in
  Alcotest.(check int) "answers found" 5 (List.length r.answers);
  let m = Engine_mt.run plan ~k:5 in
  Fixtures.check_scores_equal ~msg:"wildcard agrees across engines"
    (Fixtures.sorted_scores r.answers)
    (Fixtures.sorted_scores m.answers)

let test_wildcard_scores () =
  (* The wildcard child predicate holds for every book, so its idf is 0
     and it adds nothing to the discrimination. *)
  let books = Fixtures.books_index in
  let comps =
    Wp_score.Component.of_pattern ~doc_root_tag:"bib" (parse "/book[./*]")
  in
  Alcotest.(check (float 1e-9)) "wildcard idf" 0.0 (Wp_score.Tfidf.idf books comps.(1))

let suite =
  [
    Alcotest.test_case "run_above vs noprun" `Quick test_run_above_matches_noprun;
    Alcotest.test_case "run_above extremes" `Quick test_run_above_extremes;
    Alcotest.test_case "run_above sorted" `Quick test_run_above_sorted;
    Alcotest.test_case "wildcard parsing" `Quick test_wildcard_parsing;
    Alcotest.test_case "wildcard matching" `Quick test_wildcard_matching;
    Alcotest.test_case "wildcard engine" `Quick test_wildcard_engine;
    Alcotest.test_case "wildcard scores" `Quick test_wildcard_scores;
  ]
