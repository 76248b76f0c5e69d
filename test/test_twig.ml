(* The holistic twig-join backend: differential equivalence against the
   existing engines, witness validity, and backend dispatch.

   The differential property: Twig == Lockstep == Whirlpool restricted
   to exact matching.  Every complete exact match scores exactly
   Score_table.max_total, so with k at least the number of exact
   matches every engine must return the same root set in the same
   deterministic order (score desc, then root asc = document order);
   for smaller k root membership under ties is arrival-order dependent,
   so only the score multiset is compared. *)

module Doc = Wp_xml.Doc
module Index = Wp_xml.Index
module Pattern = Wp_pattern.Pattern

module Twig_join = Wp_twig.Twig_join
module Backend = Wp_twig.Backend
module Config = Whirlpool.Engine.Config

let exact = Wp_relax.Relaxation.exact

let indexes () =
  [
    ("books", Fixtures.books_index);
    ("xmark-default", Lazy.force Fixtures.xmark_index);
    ( "xmark-rich",
      Index.build
        (Wp_xmark.Generator.generate_doc
           ~profile:Wp_xmark.Generator.rich_profile ~seed:21
           ~target_bytes:60_000 ()) );
    ( "xmark-sparse",
      Index.build
        (Wp_xmark.Generator.generate_doc
           ~profile:Wp_xmark.Generator.sparse_profile ~seed:22
           ~target_bytes:60_000 ()) );
  ]

let queries =
  [
    Fixtures.q1;
    Fixtures.q2;
    Fixtures.q3;
    Fixtures.q2a;
    Fixtures.q2d;
    "//keyword";
    "//item[./name and ./incategory]";
  ]

let roots (r : Whirlpool.Engine.result) =
  List.map (fun (e : Whirlpool.Topk_set.entry) -> e.root) r.answers

let root_scores (r : Whirlpool.Engine.result) =
  List.map
    (fun (e : Whirlpool.Topk_set.entry) -> (e.root, e.score))
    r.answers

let test_differential_exact () =
  List.iter
    (fun (name, idx) ->
      List.iter
        (fun query ->
          let pat = Fixtures.parse query in
          let plan = Whirlpool.Run.compile ~config:exact idx pat in
          let m = Twig_join.match_count plan in
          (* k >= every exact match: full answer lists must agree. *)
          let k = m + 3 in
          let tw = Twig_join.run plan ~k in
          let wp = Whirlpool.Engine.run plan ~k in
          let ls = Whirlpool.Lockstep.run plan ~k in
          let c msg = Printf.sprintf "%s %s %s" name query msg in
          Alcotest.(check (list (pair int (float 1e-9))))
            (c "twig == whirlpool-exact")
            (root_scores wp) (root_scores tw);
          Alcotest.(check (list (pair int (float 1e-9))))
            (c "twig == lockstep")
            (root_scores ls) (root_scores tw);
          Alcotest.(check int) (c "completed = match count") m
            tw.stats.completed;
          Alcotest.(check bool) (c "not partial") false tw.partial;
          (* Small k: same number of answers with the same scores. *)
          if m > 1 then begin
            let k = (m / 2) + 1 in
            let tw = Twig_join.run plan ~k in
            let wp = Whirlpool.Engine.run plan ~k in
            Fixtures.check_scores_equal ~msg:(c "small-k scores")
              (Fixtures.sorted_scores wp.answers)
              (Fixtures.sorted_scores tw.answers)
          end)
        queries)
    (indexes ())

(* Twig ignores relaxations: the same pattern compiled with every
   relaxation enabled must give the same twig answers as the exact
   plan. *)
let test_relaxations_ignored () =
  let idx = Lazy.force Fixtures.xmark_index in
  List.iter
    (fun query ->
      let pat = Fixtures.parse query in
      let exact_plan = Whirlpool.Run.compile ~config:exact idx pat in
      let relaxed_plan = Whirlpool.Run.compile idx pat in
      let a = Twig_join.run exact_plan ~k:100 in
      let b = Twig_join.run relaxed_plan ~k:100 in
      Alcotest.(check (list int))
        (query ^ " roots unaffected by plan relaxations")
        (roots a) (roots b))
    [ Fixtures.q1; Fixtures.q2 ]

(* Witness bindings must be real embeddings: tags, values, axes and the
   root edge all check out against the document. *)
let check_embedding ~msg doc pat (e : Whirlpool.Topk_set.entry) =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) msg in
  Array.iteri
    (fun q node ->
      if node = Whirlpool.Partial_match.unbound then
        fail "pattern node %d unbound" q;
      let tag = Pattern.tag pat q in
      if tag <> Index.wildcard && Doc.tag doc node <> tag then
        fail "node %d tag %s, wanted %s" node (Doc.tag doc node) tag;
      (match Pattern.value pat q with
      | Some v when Doc.value doc node <> Some v ->
          fail "node %d value mismatch" node
      | _ -> ());
      match Pattern.parent pat q with
      | None -> (
          let d = Doc.depth doc node in
          match Pattern.root_edge pat with
          | Pattern.Pc -> if d <> 1 then fail "root depth %d under / edge" d
          | Pattern.Ad -> if d < 1 then fail "root at document root")
      | Some pq -> (
          let anc = e.bindings.(pq) in
          match Pattern.edge pat q with
          | Pattern.Pc ->
              if Doc.parent doc node <> Some anc then
                fail "node %d not a child of %d" node anc
          | Pattern.Ad ->
              if not (Doc.is_ancestor doc ~anc ~desc:node) then
                fail "node %d not a descendant of %d" node anc))
    e.bindings

let test_witnesses () =
  List.iter
    (fun (name, idx) ->
      let doc = Index.doc idx in
      List.iter
        (fun query ->
          let pat = Fixtures.parse query in
          let plan = Whirlpool.Run.compile ~config:exact idx pat in
          let r = Twig_join.run plan ~k:25 in
          List.iter
            (fun e ->
              check_embedding
                ~msg:(Printf.sprintf "%s %s" name query)
                doc pat e)
            r.answers)
        queries)
    (indexes ())

let test_should_stop () =
  let idx = Lazy.force Fixtures.xmark_index in
  let plan =
    Whirlpool.Run.compile ~config:exact idx (Fixtures.parse Fixtures.q2)
  in
  let config = Config.(default |> with_should_stop (fun () -> true)) in
  let r = Twig_join.run ~config plan ~k:10 in
  Alcotest.(check bool) "partial" true r.partial;
  Alcotest.(check (list int)) "no answers" [] (roots r)

(* Backend dispatch: every algo runs and the axis round-trips through
   its wire names. *)
let test_backend_dispatch () =
  let idx = Fixtures.books_index in
  let plan = Whirlpool.Run.compile idx (Fixtures.parse Fixtures.q2d) in
  List.iter
    (fun algo ->
      let s = Config.algo_to_string algo in
      Alcotest.(check bool)
        (s ^ " round-trips") true
        (Config.algo_of_string s = Some algo);
      let config = Config.(default |> with_algo algo) in
      let r = Backend.run ~config plan ~k:3 in
      Alcotest.(check bool)
        (s ^ " produces answers")
        true
        (List.length r.answers > 0))
    Config.all_algos;
  Alcotest.(check (option reject)) "unknown algo rejected" None
    (Option.map (fun _ -> ()) (Config.algo_of_string "quicksort"))

let suite =
  [
    Alcotest.test_case "twig == lockstep == whirlpool-exact" `Quick
      test_differential_exact;
    Alcotest.test_case "plan relaxations ignored" `Quick
      test_relaxations_ignored;
    Alcotest.test_case "witness bindings are real embeddings" `Quick
      test_witnesses;
    Alcotest.test_case "should_stop honored" `Quick test_should_stop;
    Alcotest.test_case "backend dispatch + algo round-trip" `Quick
      test_backend_dispatch;
  ]
