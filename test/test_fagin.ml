open Whirlpool

let idx = Lazy.force Fixtures.xmark_index
let books = Fixtures.books_index
let parse = Fixtures.parse

let scores l = List.map snd l

let test_ta_equals_scan () =
  (* TA guarantees the top-k *scores*; with ties the chosen roots may
     legitimately differ from the scan's. *)
  List.iter
    (fun q ->
      let plan = Run.compile idx (parse q) in
      let lists = Fagin.build_lists plan in
      List.iter
        (fun k ->
          let ta = Fagin.top_k lists ~k in
          let scan = Fagin.scan_top_k lists ~k in
          Alcotest.(check (list (float 1e-9)))
            (Printf.sprintf "%s k=%d" q k)
            (scores scan) (scores ta.answers))
        [ 1; 5; 20 ])
    [ Fixtures.q1; Fixtures.q2; Fixtures.q3 ]

let test_ta_equals_whirlpool_scores () =
  (* Under full relaxation, per-node independence makes the best match
     score of a root the sum of its per-node best weights — TA and the
     adaptive engine must agree on the top-k score multiset. *)
  List.iter
    (fun q ->
      let plan = Run.compile idx (parse q) in
      let lists = Fagin.build_lists plan in
      let k = 10 in
      let ta = Fagin.top_k lists ~k in
      let engine = Engine.run plan ~k in
      Fixtures.check_scores_equal ~msg:("TA = Whirlpool scores on " ^ q)
        (Fixtures.sorted_scores engine.answers)
        (List.sort (fun a b -> Float.compare b a) (List.map snd ta.answers)))
    [ Fixtures.q1; Fixtures.q2; Fixtures.q3 ]

let test_nra_equals_scan () =
  List.iter
    (fun q ->
      let plan = Run.compile idx (parse q) in
      let lists = Fagin.build_lists plan in
      List.iter
        (fun k ->
          let nra = Fagin.top_k_nra lists ~k in
          Alcotest.(check (list (float 1e-9)))
            (Printf.sprintf "NRA %s k=%d" q k)
            (scores (Fagin.scan_top_k lists ~k))
            (scores nra.answers);
          Alcotest.(check int) "no random accesses" 0 nra.random_accesses)
        [ 1; 5; 20 ])
    [ Fixtures.q1; Fixtures.q2; Fixtures.q3 ]

let test_ta_stops_early () =
  let plan = Run.compile idx (parse Fixtures.q2) in
  let lists = Fagin.build_lists plan in
  let ta = Fagin.top_k lists ~k:5 in
  let total = Array.length plan.Plan.roots in
  Alcotest.(check bool)
    (Printf.sprintf "fewer sorted accesses (%d) than full scan (%d lists x %d)"
       ta.sorted_accesses plan.n_servers total)
    true
    (ta.sorted_accesses < plan.n_servers * total);
  Alcotest.(check bool) "rounds positive" true (ta.rounds > 0)

let test_ta_exhausts_small_inputs () =
  let plan = Run.compile books (parse Fixtures.q2a) in
  let lists = Fagin.build_lists plan in
  let ta = Fagin.top_k lists ~k:10 in
  Alcotest.(check int) "three books" 3 (List.length ta.answers)

let test_requires_full_relaxation () =
  let plan =
    Run.compile ~config:Wp_relax.Relaxation.exact books (parse Fixtures.q2a)
  in
  Alcotest.check_raises "independence check"
    (Invalid_argument
       "Fagin.build_lists: per-node independence requires all relaxations")
    (fun () -> ignore (Fagin.build_lists plan))

let test_threshold_rule_is_safe () =
  (* Property: on random documents TA equals the scan for every k. *)
  let prop =
    QCheck2.Test.make ~name:"TA = scan on random docs" ~count:40
      Test_doc.gen_tree (fun tree ->
        let doc = Wp_xml.Doc.of_tree tree in
        let idx = Wp_xml.Index.build doc in
        let pat = parse "//t0[./t1 and .//t2]" in
        let plan = Run.compile idx pat in
        match plan.Plan.roots with
        | [||] -> true
        | _ ->
            let lists = Fagin.build_lists plan in
            List.for_all
              (fun k ->
                List.map snd (Fagin.top_k lists ~k).answers
                = List.map snd (Fagin.scan_top_k lists ~k))
              [ 1; 3; 7 ])
  in
  QCheck_alcotest.to_alcotest prop

let suite =
  [
    Alcotest.test_case "TA = scan" `Quick test_ta_equals_scan;
    Alcotest.test_case "TA = Whirlpool scores" `Quick test_ta_equals_whirlpool_scores;
    Alcotest.test_case "TA stops early" `Quick test_ta_stops_early;
    Alcotest.test_case "TA exhausts small inputs" `Quick test_ta_exhausts_small_inputs;
    Alcotest.test_case "requires full relaxation" `Quick test_requires_full_relaxation;
    Alcotest.test_case "NRA = scan" `Quick test_nra_equals_scan;
    test_threshold_rule_is_safe ();
  ]
