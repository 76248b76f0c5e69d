(* Cross-engine consistency under every relaxation configuration: all
   2^3 combinations of edge generalization, leaf deletion and subtree
   promotion must give the same top-k score multisets on every engine,
   and the phantom-entry retraction must keep dead matches out of the
   answers. *)

open Whirlpool

let idx = Lazy.force Fixtures.xmark_index
let books = Fixtures.books_index
let parse = Fixtures.parse

let all_configs =
  List.concat_map
    (fun eg ->
      List.concat_map
        (fun ld ->
          List.map
            (fun sp ->
              {
                Wp_relax.Relaxation.edge_generalization = eg;
                leaf_deletion = ld;
                subtree_promotion = sp;
                value_relaxation = false;
              })
            [ false; true ])
        [ false; true ])
    [ false; true ]

let config_name c = Format.asprintf "%a" Wp_relax.Relaxation.pp_config c

let test_engines_agree_on_all_configs () =
  List.iter
    (fun config ->
      let plan = Run.compile ~config idx (parse Fixtures.q2) in
      let reference = Fixtures.sorted_scores (Engine.run plan ~k:8).answers in
      List.iter
        (fun algo ->
          let r = Fixtures.run_algo algo plan ~k:8 in
          Fixtures.check_scores_equal
            ~msg:
              (Printf.sprintf "%s under %s" (config_name config)
                 (Engine.Config.algo_to_string algo))
            reference
            (Fixtures.sorted_scores r.answers))
        Engine.Config.[ Whirlpool_mt; Lockstep ])
    all_configs

let test_monotone_in_relaxation_power () =
  (* Enabling more relaxations can only extend the answer set (the exact
     matches stay; approximations join).  Check answer counts are
     monotone along chains of configurations. *)
  let count config =
    let plan = Run.compile ~config books (parse Fixtures.q2a) in
    List.length (Engine.run plan ~k:10).answers
  in
  let exact = count Wp_relax.Relaxation.exact in
  let all = count Wp_relax.Relaxation.all in
  Alcotest.(check bool) "all >= exact" true (all >= exact);
  List.iter
    (fun config ->
      let n = count config in
      Alcotest.(check bool)
        (config_name config ^ " between exact and all")
        true
        (n >= exact && n <= all))
    all_configs

let test_no_phantom_answers () =
  (* Under deletion-without-promotion, matches can die after being
     admitted; every reported root must still be justified by a complete
     (possibly partial-binding) surviving match — cross-check with the
     no-pruning run, which explores everything. *)
  let config =
    {
      Wp_relax.Relaxation.edge_generalization = true;
      leaf_deletion = true;
      subtree_promotion = false;
      value_relaxation = false;
    }
  in
  List.iter
    (fun q ->
      let plan = Run.compile ~config idx (parse q) in
      let reference = Fixtures.run_algo Engine.Config.Lockstep_noprun plan ~k:8 in
      let r = Engine.run plan ~k:8 in
      Fixtures.check_scores_equal ~msg:("no phantom answers: " ^ q)
        (Fixtures.sorted_scores reference.answers)
        (Fixtures.sorted_scores r.answers))
    [ Fixtures.q1; Fixtures.q2 ]

let test_exact_config_subsumption () =
  (* Under every configuration, the exact matches must surface with the
     full score: with k no smaller than the exact-match count, at least
     that many full-score answers appear. *)
  let pat = parse Fixtures.q1 in
  let exact_roots = Wp_pattern.Matcher.matching_roots idx pat in
  let n_exact = List.length exact_roots in
  Alcotest.(check bool) "fixture has exact matches" true (n_exact > 0);
  List.iter
    (fun config ->
      let plan = Run.compile ~config idx pat in
      let r = Engine.run plan ~k:(n_exact + 5) in
      let full = float_of_int (Wp_pattern.Pattern.size pat) in
      let full_scored =
        List.filter
          (fun (e : Topk_set.entry) -> Float.abs (e.score -. full) < 1e-9)
          r.answers
      in
      Alcotest.(check bool)
        (config_name config ^ ": every exact match reaches the full score")
        true
        (List.length full_scored >= n_exact))
    all_configs

let suite =
  [
    Alcotest.test_case "engines agree on all configs" `Quick
      test_engines_agree_on_all_configs;
    Alcotest.test_case "monotone in relaxation power" `Quick
      test_monotone_in_relaxation_power;
    Alcotest.test_case "no phantom answers" `Quick test_no_phantom_answers;
    Alcotest.test_case "exact subsumption" `Quick test_exact_config_subsumption;
  ]
