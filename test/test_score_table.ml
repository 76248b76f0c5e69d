open Wp_score
open Wp_relax

let idx = Fixtures.books_index
let parse = Fixtures.parse
let float_eq = Alcotest.(check (float 1e-9))

let test_raw_weights () =
  let t =
    Score_table.build idx (parse Fixtures.q2a) Relaxation.all Score_table.Raw
  in
  Alcotest.(check int) "size" 5 (Score_table.size t);
  (* Exact weights are the exact-component idfs. *)
  float_eq "title exact" (log (3.0 /. 2.0)) (Score_table.entry t 1).exact_weight;
  float_eq "publisher exact" (log 3.0) (Score_table.entry t 3).exact_weight;
  (* The relaxed publisher predicate (any descendant) is satisfied by
     books (a) and (b): lower idf. *)
  float_eq "publisher relaxed" (log (3.0 /. 2.0))
    (Score_table.entry t 3).relaxed_weight;
  (* Relaxation can only lose selectivity. *)
  for i = 0 to Score_table.size t - 1 do
    let e = Score_table.entry t i in
    Alcotest.(check bool) "relaxed <= exact" true
      (e.relaxed_weight <= e.exact_weight +. 1e-12)
  done

let test_exact_config_weights () =
  let t =
    Score_table.build idx (parse Fixtures.q2a) Relaxation.exact Score_table.Raw
  in
  for i = 0 to Score_table.size t - 1 do
    let e = Score_table.entry t i in
    float_eq "no relaxation: weights equal" e.exact_weight e.relaxed_weight
  done

let test_sparse_normalization () =
  let t =
    Score_table.build idx (parse Fixtures.q2a) Relaxation.all Score_table.Sparse
  in
  for i = 0 to Score_table.size t - 1 do
    let e = Score_table.entry t i in
    float_eq "every exact weight is 1" 1.0 e.exact_weight;
    Alcotest.(check bool) "relaxed within [0,1]" true
      (e.relaxed_weight >= 0.0 && e.relaxed_weight <= 1.0)
  done;
  float_eq "max_total = pattern size" 5.0 (Score_table.max_total t)

let test_dense_normalization () =
  let t =
    Score_table.build idx (parse Fixtures.q2a) Relaxation.all Score_table.Dense
  in
  let max_w = ref 0.0 in
  for i = 0 to Score_table.size t - 1 do
    max_w := Float.max !max_w (Score_table.entry t i).exact_weight
  done;
  float_eq "global max is 1" 1.0 !max_w;
  (* Skew preserved: title/publisher ratio survives normalization. *)
  let title = (Score_table.entry t 1).exact_weight in
  let publisher = (Score_table.entry t 3).exact_weight in
  float_eq "ratio preserved" (log (3.0 /. 2.0) /. log 3.0) (title /. publisher)

let test_random_tables () =
  let pat = parse Fixtures.q2 in
  let t1 = Score_table.build idx pat Relaxation.all (Score_table.Random_sparse 7) in
  let t2 = Score_table.build idx pat Relaxation.all (Score_table.Random_sparse 7) in
  for i = 0 to Score_table.size t1 - 1 do
    float_eq "deterministic per seed" (Score_table.entry t1 i).exact_weight
      (Score_table.entry t2 i).exact_weight
  done;
  let t3 = Score_table.build idx pat Relaxation.all (Score_table.Random_sparse 8) in
  let differs = ref false in
  for i = 0 to Score_table.size t1 - 1 do
    if
      Float.abs
        ((Score_table.entry t1 i).exact_weight
        -. (Score_table.entry t3 i).exact_weight)
      > 1e-12
    then differs := true
  done;
  Alcotest.(check bool) "seeds differ" true !differs;
  (* Shape: sparse has a large exact/relaxed gap, dense a small one. *)
  let gap table i =
    let e = Score_table.entry table i in
    e.relaxed_weight /. e.exact_weight
  in
  let dense = Score_table.build idx pat Relaxation.all (Score_table.Random_dense 7) in
  for i = 1 to Score_table.size t1 - 1 do
    Alcotest.(check bool) "sparse gap below dense gap" true (gap t1 i < gap dense i)
  done

let test_max_contribution () =
  let t = Score_table.build idx (parse Fixtures.q2a) Relaxation.all Score_table.Raw in
  float_eq "max contribution = exact weight" (log 3.0)
    (Score_table.max_contribution t 3)

let test_of_entries () =
  let entries =
    [|
      { Score_table.node = 0; exact_weight = 0.0; relaxed_weight = 0.0 };
      { Score_table.node = 1; exact_weight = 0.5; relaxed_weight = 0.25 };
    |]
  in
  let t = Score_table.of_entries entries in
  float_eq "entry preserved" 0.5 (Score_table.entry t 1).exact_weight;
  float_eq "max_total" 0.5 (Score_table.max_total t)

let test_normalization_parsing () =
  Alcotest.(check bool) "sparse" true
    (Score_table.normalization_of_string "sparse" = Some Score_table.Sparse);
  Alcotest.(check bool) "unknown" true
    (Score_table.normalization_of_string "bogus" = None)

(* Score tables of the paper's XMark queries and the content query QC
   on the shared XMark fixture, recorded before idf moved to a merge
   sweep over the postings: every weight must stay bit-identical, on
   the in-memory index and on the same document mapped from a .wpidx
   file.  Rows are (normalization, query, (exact, relaxed) per node). *)
let golden_qc =
  "//item[./mailbox/mail/text[./keyword = 'vintage'] and ./name and \
   ./incategory]"

let golden =
  [
    ( Score_table.Raw, Fixtures.q1,
      [ (0x0p+0, 0x0p+0); (0x0p+0, 0x0p+0);
        (0x1.2f159c4e0b3bcp-2, 0x1.2f159c4e0b3bcp-2) ] );
    ( Score_table.Raw, Fixtures.q2,
      [ (0x0p+0, 0x0p+0); (0x0p+0, 0x0p+0);
        (0x1.2f159c4e0b3bcp-2, 0x1.2f159c4e0b3bcp-2);
        (0x1.0f0e471da3711p-3, 0x1.0f0e471da3711p-3);
        (0x1.b4932dcf85d8bp-2, 0x1.b4932dcf85d8bp-2);
        (0x1.f786e0828c2f3p-2, 0x0p+0) ] );
    ( Score_table.Raw, Fixtures.q3,
      [ (0x0p+0, 0x0p+0);
        (0x1.0f0e471da3711p-3, 0x1.0f0e471da3711p-3);
        (0x1.b4932dcf85d8bp-2, 0x1.b4932dcf85d8bp-2);
        (0x1.f786e0828c2f3p-2, 0x0p+0);
        (0x1.ba599beb5b661p-1, 0x1.afc4010d85c43p-3);
        (0x1.a6a7c1b70c7b4p-1, 0x1.c4c55d33d6a77p-3);
        (0x1.0f0e471da3711p-3, 0x1.0f0e471da3711p-3);
        (0x1.2f159c4e0b3bcp-2, 0x1.2f159c4e0b3bcp-2) ] );
    ( Score_table.Raw, golden_qc,
      [ (0x0p+0, 0x0p+0);
        (0x1.0f0e471da3711p-3, 0x1.0f0e471da3711p-3);
        (0x1.b4932dcf85d8bp-2, 0x1.b4932dcf85d8bp-2);
        (0x1.f786e0828c2f3p-2, 0x0p+0);
        (0x1.8084171e95e96p+1, 0x1.32ee3b77f374cp+1);
        (0x1.0f0e471da3711p-3, 0x1.0f0e471da3711p-3);
        (0x1.2f159c4e0b3bcp-2, 0x1.2f159c4e0b3bcp-2) ] );
    ( Score_table.Sparse, Fixtures.q1,
      [ (0x1p+0, 0x1p-1); (0x1p+0, 0x1p-1); (0x1p+0, 0x1p+0) ] );
    ( Score_table.Sparse, Fixtures.q2,
      [ (0x1p+0, 0x1p-1); (0x1p+0, 0x1p-1); (0x1p+0, 0x1p+0);
        (0x1p+0, 0x1p+0); (0x1p+0, 0x1p+0); (0x1p+0, 0x0p+0) ] );
    ( Score_table.Sparse, Fixtures.q3,
      [ (0x1p+0, 0x1p-1); (0x1p+0, 0x1p+0); (0x1p+0, 0x1p+0);
        (0x1p+0, 0x0p+0); (0x1p+0, 0x1.f3bfc17c13936p-3);
        (0x1p+0, 0x1.123daabdccd6ap-2); (0x1p+0, 0x1p+0); (0x1p+0, 0x1p+0) ] );
    ( Score_table.Sparse, golden_qc,
      [ (0x1p+0, 0x1p-1); (0x1p+0, 0x1p+0); (0x1p+0, 0x1p+0);
        (0x1p+0, 0x0p+0); (0x1p+0, 0x1.98b10f279161cp-1); (0x1p+0, 0x1p+0);
        (0x1p+0, 0x1p+0) ] );
  ]

let check_golden backend ix =
  List.iter
    (fun (norm, q, want) ->
      let t = Score_table.build ix (parse q) Relaxation.all norm in
      Alcotest.(check int) (q ^ ": size") (List.length want) (Score_table.size t);
      List.iteri
        (fun node (exact, relaxed) ->
          let e = Score_table.entry t node in
          let same what got want =
            if not (Float.equal got want) then
              Alcotest.failf "%s %s %a node %d %s: %h, recorded %h" backend q
                Score_table.pp_normalization norm node what got want
          in
          same "exact" e.exact_weight exact;
          same "relaxed" e.relaxed_weight relaxed)
        want)
    golden

let test_golden_xmark () =
  check_golden "mem" (Lazy.force Fixtures.xmark_index);
  let path = Filename.temp_file "wp-score-table-test" ".wpidx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let (_ : int) =
        Wp_storage.Index_file.write path (Lazy.force Fixtures.xmark_doc)
      in
      match Wp_storage.Index_file.open_index path with
      | Ok h -> check_golden "mapped" (Wp_storage.Index_file.index h)
      | Error e -> Alcotest.fail (Wp_storage.Index_file.error_message e))

let suite =
  [
    Alcotest.test_case "raw weights" `Quick test_raw_weights;
    Alcotest.test_case "exact config" `Quick test_exact_config_weights;
    Alcotest.test_case "sparse normalization" `Quick test_sparse_normalization;
    Alcotest.test_case "dense normalization" `Quick test_dense_normalization;
    Alcotest.test_case "random tables" `Quick test_random_tables;
    Alcotest.test_case "max contribution" `Quick test_max_contribution;
    Alcotest.test_case "of_entries" `Quick test_of_entries;
    Alcotest.test_case "normalization parsing" `Quick test_normalization_parsing;
      Alcotest.test_case "golden XMark tables" `Quick test_golden_xmark;
  ]
