(* Prune-soundness prover tests.

   The prover's verdict is a claim about engine behaviour: a certified
   table admits no pruning unsoundness (max_possible always bounds
   completions) and no score-raising relaxation edge.  These tests pin
   both directions — every shipped config certifies, a seeded
   non-monotone table is rejected at every layer (prover, diagnostics,
   runtime cross-check, plan validation) — and a property test checks
   the verdict agrees with an independent empirical enumeration of
   extension and relaxation deltas on random tables. *)

open Whirlpool
module Prove = Wp_analysis.Prove
module Score_table = Wp_score.Score_table

let test_shipped_certified () =
  let certs = Prove.check_shipped () in
  Alcotest.(check int) "5 normalizations x 3 configs"
    (List.length Prove.shipped_normalizations
    * List.length Prove.shipped_configs)
    (List.length certs);
  List.iter
    (fun (c : Prove.certificate) ->
      if not (Prove.certified c) then
        List.iter
          (fun (o : Prove.obligation) ->
            match o.Prove.verdict with
            | Prove.Proved -> ()
            | Prove.Refuted w -> Format.eprintf "%s: %s@." c.subject w)
          c.obligations;
      Alcotest.(check bool) (c.subject ^ " certified") true (Prove.certified c))
    certs;
  Alcotest.(check (list string)) "no diagnostics from certified configs" []
    (List.map
       (fun (d : Wp_analysis.Diagnostic.t) -> d.code)
       (Prove.diagnostics certs))

(* The pinned rejection: a table whose relaxed weight exceeds its exact
   weight means a relaxation edge would RAISE the score — pruning
   against max_possible (sum of exact weights) is unsound. *)
let bad_table =
  Score_table.of_entries
    [| { Score_table.node = 0; exact_weight = 0.4; relaxed_weight = 0.9 } |]

let test_non_monotone_rejected () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  (match Prove.table_violations bad_table with
  | [ v ] ->
      Alcotest.(check bool) "violation names the weights" true
        (contains v "exceeds")
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs));
  let cert = Prove.certify_table ~subject:"seeded bad table" bad_table in
  Alcotest.(check bool) "certificate refuted" false (Prove.certified cert);
  match Prove.diagnostics [ cert ] with
  | [ d ] ->
      Alcotest.(check string) "diagnostic code" "sentinel/prune-unsound"
        d.Wp_analysis.Diagnostic.code
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_runtime_cross_check () =
  (* The WP_CHECK_INVARIANTS hook runs the same checker. *)
  Alcotest.check_raises "check_table raises Violation"
    (Invariants.Violation
       "score table fails prune-soundness: q0: relaxed_weight 0.9 exceeds \
        exact_weight 0.4 — a relaxation edge could raise the score and \
        max_possible under-estimates completions")
    (fun () -> Invariants.check_table bad_table)

(* --- properties (satellite: prover verdict = empirical verdict) --- *)

(* An independent enumeration of what the engine does with the table:
   a binding contributes exact_weight, relaxed_weight (after an edge
   generalization / promotion / value relaxation) or 0 (after a leaf
   deletion); pruning promises each future binding at most
   exact_weight.  The table is empirically sound iff every contribution
   is finite and within [0, exact_weight] and no relaxation step raises
   a contribution. *)
let empirically_sound t =
  let ok = ref true in
  for node = 0 to Score_table.size t - 1 do
    let e = Score_table.entry t node in
    let contributions =
      [ e.Score_table.exact_weight; e.Score_table.relaxed_weight; 0.0 ]
    in
    List.iter
      (fun c ->
        if
          not
            (Float.is_finite c && c >= 0.0 && c <= e.Score_table.exact_weight)
        then ok := false)
      contributions;
    (* relaxation deltas: exact -> relaxed, exact -> deleted,
       relaxed -> deleted must all be <= 0 *)
    if e.Score_table.relaxed_weight > e.Score_table.exact_weight then
      ok := false
  done;
  !ok

let gen_entries =
  QCheck2.Gen.(
    array_size (int_range 1 8)
      (map2
         (fun exact relaxed ->
           { Score_table.node = 0; exact_weight = exact;
             relaxed_weight = relaxed })
         (float_range (-0.5) 1.5)
         (float_range (-0.5) 1.5)))

let prop_verdict_matches_empirical =
  QCheck2.Test.make
    ~name:"prover verdict = empirical admissibility + monotonicity"
    ~count:500 gen_entries (fun entries ->
      let t = Score_table.of_entries entries in
      Prove.table_violations t = [] = empirically_sound t)

(* Tables the repo actually builds — any document, any pattern, any
   relaxation config, any normalization — must always certify: the
   symbolic certificates over the construction formulas claim exactly
   this. *)
let gen_norm =
  QCheck2.Gen.oneofl
    [
      Score_table.Raw;
      Score_table.Sparse;
      Score_table.Dense;
      Score_table.Random_sparse 7;
      Score_table.Random_dense 11;
    ]

let gen_config =
  QCheck2.Gen.(
    map3
      (fun eg ld sp ->
        {
          Wp_relax.Relaxation.edge_generalization = eg;
          leaf_deletion = ld;
          subtree_promotion = sp;
          value_relaxation = false;
        })
      bool bool bool)

let prop_built_tables_sound =
  QCheck2.Test.make ~name:"every built score table is prune-sound" ~count:150
    QCheck2.Gen.(
      pair
        (pair (map Wp_xml.Doc.of_tree Test_doc.gen_tree)
           Test_matcher.small_pattern_gen)
        (pair gen_config gen_norm))
    (fun ((doc, pat), (config, norm)) ->
      let idx = Wp_xml.Index.build doc in
      let t = Score_table.build idx pat config norm in
      Prove.table_violations t = [] && empirically_sound t)

let suite =
  [
    Alcotest.test_case "shipped configs certified" `Quick test_shipped_certified;
    Alcotest.test_case "non-monotone table rejected" `Quick
      test_non_monotone_rejected;
    Alcotest.test_case "runtime cross-check" `Quick test_runtime_cross_check;
    QCheck_alcotest.to_alcotest prop_verdict_matches_empirical;
    QCheck_alcotest.to_alcotest prop_built_tables_sound;
  ]
