(* End-to-end scenarios across the whole stack: generate or parse a
   document, compile a query, run engines, validate against reference
   semantics. *)

open Whirlpool

let parse = Fixtures.parse

let test_xml_text_to_answers () =
  (* From raw XML text all the way to ranked answers. *)
  let xml =
    "<bib>\
     <book><title>wodehouse</title><info><publisher><name>psmith</name>\
     </publisher><price>48.95</price></info><isbn>1234</isbn></book>\
     <book><title>wodehouse</title><publisher><name>psmith</name>\
     <location>london</location></publisher><info><isbn>1234</isbn></info>\
     <price>48.95</price></book>\
     <book><reviews><title>wodehouse</title></reviews>\
     <location>london</location><isbn>1234</isbn><price>48.95</price></book>\
     </bib>"
  in
  let doc = Wp_xml.Parser.parse_doc xml in
  let idx = Wp_xml.Index.build doc in
  let r = Run.top_k ~normalization:Wp_score.Score_table.Raw idx (parse Fixtures.q2a) ~k:3 in
  Alcotest.(check int) "three ranked books" 3 (List.length r.answers);
  let scores = Fixtures.sorted_scores r.answers in
  Alcotest.(check bool) "strictly decreasing" true
    (match scores with
    | [ a; b; c ] -> a > b && b > c
    | _ -> false)

let test_parsed_equals_built () =
  (* The same document built programmatically and via the parser must
     produce identical rankings. *)
  let built = Fixtures.books_index in
  let reparsed =
    Wp_xml.Index.build
      (Wp_xml.Parser.parse_doc (Wp_xml.Printer.doc_to_string Fixtures.books_doc))
  in
  List.iter
    (fun q ->
      let r1 = Run.top_k built (parse q) ~k:3 in
      let r2 = Run.top_k reparsed (parse q) ~k:3 in
      Fixtures.check_scores_equal ~msg:("parse-roundtrip ranking: " ^ q)
        (Fixtures.sorted_scores r1.answers)
        (Fixtures.sorted_scores r2.answers))
    [ Fixtures.q2a; Fixtures.q2c; Fixtures.q2d ]

let test_relaxed_scores_dominate_exact_subsets () =
  (* Every exact match must rank at least as high as any approximate
     match under any normalization. *)
  let idx = Lazy.force Fixtures.xmark_index in
  let pat = parse Fixtures.q2 in
  List.iter
    (fun normalization ->
      let plan = Run.compile ~normalization idx pat in
      let r = Engine.run plan ~k:30 in
      let exact_roots = Wp_pattern.Matcher.matching_roots idx pat in
      let exact_scores, approx_scores =
        List.partition_map
          (fun (e : Topk_set.entry) ->
            if List.mem e.root exact_roots then Left e.score else Right e.score)
          r.answers
      in
      match (exact_scores, approx_scores) with
      | [], _ | _, [] -> ()
      | es, aps ->
          let min_exact = List.fold_left Float.min infinity es in
          let max_approx = List.fold_left Float.max neg_infinity aps in
          Alcotest.(check bool)
            (Format.asprintf "exact >= approx under %a"
               Wp_score.Score_table.pp_normalization normalization)
            true
            (min_exact >= max_approx -. 1e-9))
    [ Wp_score.Score_table.Raw; Wp_score.Score_table.Sparse ]

let test_consistency_across_document_sizes () =
  (* The invariant suite on three generated document sizes: all four
     algorithms agree with the no-pruning baseline. *)
  List.iter
    (fun target_bytes ->
      let doc = Wp_xmark.Generator.generate_doc ~seed:21 ~target_bytes () in
      let idx = Wp_xml.Index.build doc in
      let plan = Run.compile idx (parse Fixtures.q2) in
      let reference =
        Fixtures.sorted_scores
          (Fixtures.run_algo Engine.Config.Lockstep_noprun plan ~k:8).answers
      in
      List.iter
        (fun algo ->
          Fixtures.check_scores_equal
            ~msg:
              (Printf.sprintf "%s at %d bytes"
                 (Engine.Config.algo_to_string algo) target_bytes)
            reference
            (Fixtures.sorted_scores (Fixtures.run_algo algo plan ~k:8).answers))
        Engine.Config.[ Whirlpool; Whirlpool_mt; Lockstep ])
    [ 30_000; 80_000; 200_000 ]

let test_algorithm_parsing_roundtrip () =
  (* The historical short aliases parse to the same backends as their
     canonical wire names. *)
  List.iter
    (fun (alias, a) ->
      Alcotest.(check bool) ("algorithm alias " ^ alias) true
        (Engine.Config.algo_of_string alias = Some a
        && Engine.Config.algo_of_string (Engine.Config.algo_to_string a)
           = Some a))
    Engine.Config.
      [ ("ws", Whirlpool); ("wm", Whirlpool_mt); ("noprun", Lockstep_noprun) ]

let test_per_query_workload_growth () =
  (* Larger queries do more work (paper Figure 10's x-axis). *)
  let idx = Lazy.force Fixtures.xmark_index in
  let ops q =
    let plan = Run.compile idx (parse q) in
    (Engine.run plan ~k:15).stats.server_ops
  in
  let o1 = ops Fixtures.q1 and o2 = ops Fixtures.q2 and o3 = ops Fixtures.q3 in
  Alcotest.(check bool)
    (Printf.sprintf "Q1(%d) <= Q2(%d) <= Q3(%d)" o1 o2 o3)
    true
    (o1 <= o2 && o2 <= o3)

let suite =
  [
    Alcotest.test_case "xml text to answers" `Quick test_xml_text_to_answers;
    Alcotest.test_case "parsed equals built" `Quick test_parsed_equals_built;
    Alcotest.test_case "exact dominates approx" `Quick test_relaxed_scores_dominate_exact_subsets;
    Alcotest.test_case "consistency across sizes" `Slow test_consistency_across_document_sizes;
    Alcotest.test_case "algorithm parsing" `Quick test_algorithm_parsing_roundtrip;
    Alcotest.test_case "workload grows with query" `Quick test_per_query_workload_growth;
  ]
