open Wp_xml

let doc = Wp_xmark.Dblp.generate_doc ~seed:17 ~target_bytes:80_000 ()
let idx = Index.build doc

let histogram = Wp_xmark.Generator.tag_histogram doc
let count tag = Option.value (List.assoc_opt tag histogram) ~default:0

let test_determinism () =
  let a = Wp_xmark.Dblp.generate ~seed:3 ~target_bytes:20_000 () in
  let b = Wp_xmark.Dblp.generate ~seed:3 ~target_bytes:20_000 () in
  Alcotest.(check bool) "same seed, same corpus" true (Tree.equal a b)

let test_size_calibration () =
  let t = Wp_xmark.Dblp.generate ~seed:5 ~target_bytes:60_000 () in
  let actual = Wp_xmark.Generator.tree_bytes t in
  Alcotest.(check bool)
    (Printf.sprintf "size close to target (got %d)" actual)
    true
    (actual >= 60_000 && actual < 62_000)

let test_entry_mix () =
  Alcotest.(check string) "root" "dblp" (Doc.tag doc 0);
  List.iter
    (fun tag -> Alcotest.(check bool) (tag ^ " present") true (count tag > 0))
    [ "article"; "inproceedings"; "book"; "phdthesis"; "author"; "title";
      "year" ]

let test_heterogeneous_authors () =
  (* Both direct authors and grouped authors must occur. *)
  let grouped = count "authors" in
  Alcotest.(check bool) "some grouped" true (grouped > 0);
  let direct =
    Array.exists
      (fun a ->
        match Doc.parent doc a with
        | Some p -> Doc.tag doc p <> "authors"
        | None -> false)
      (Fixtures.ids idx "author")
  in
  Alcotest.(check bool) "some direct" true direct

let test_optional_fields () =
  let articles = Fixtures.ids idx "article" in
  let with_volume =
    Array.fold_left
      (fun acc a ->
        if Index.count_descendants idx "volume" ~root:a > 0 then acc + 1 else acc)
      0 articles
  in
  Alcotest.(check bool) "some articles have volume" true (with_volume > 0);
  Alcotest.(check bool) "some articles lack volume" true
    (with_volume < Array.length articles)

let test_queries_behave () =
  List.iter
    (fun (name, q) ->
      let pat = Fixtures.parse q in
      let plan = Whirlpool.Run.compile idx pat in
      let r = Whirlpool.Engine.run plan ~k:10 in
      Alcotest.(check bool) (name ^ " returns answers") true
        (List.length r.answers > 0);
      (* and the engines agree here too *)
      let noprun = Whirlpool.Lockstep.run ~prune:false plan ~k:10 in
      Fixtures.check_scores_equal ~msg:(name ^ " consistent")
        (Fixtures.sorted_scores noprun.answers)
        (Fixtures.sorted_scores r.answers))
    Wp_xmark.Dblp.queries

let test_promotion_matters_for_ee () =
  (* D2 asks for ./ee but articles nest it under eelist: without
     promotion the binding is impossible, with it the ee binds at the
     relaxed level. *)
  let pat = Fixtures.parse "//article[./ee]" in
  let with_promo = Whirlpool.Run.compile idx pat in
  let r = Whirlpool.Engine.run with_promo ~k:50 in
  let bound =
    List.filter
      (fun (e : Whirlpool.Topk_set.entry) -> e.bindings.(1) >= 0)
      r.answers
  in
  Alcotest.(check bool) "promotion finds nested ee" true (List.length bound > 0);
  let exact_roots = Wp_pattern.Matcher.matching_roots idx pat in
  Alcotest.(check int) "no article has a direct ee child" 0
    (List.length exact_roots)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "size calibration" `Quick test_size_calibration;
    Alcotest.test_case "entry mix" `Quick test_entry_mix;
    Alcotest.test_case "heterogeneous authors" `Quick test_heterogeneous_authors;
    Alcotest.test_case "optional fields" `Quick test_optional_fields;
    Alcotest.test_case "queries behave" `Quick test_queries_behave;
    Alcotest.test_case "promotion matters" `Quick test_promotion_matters_for_ee;
  ]
