open Wp_xml

(*  r
    ├ a        (1)
    │ ├ b      (2)
    │ │ └ b    (3)
    │ └ c      (4)
    ├ b        (5)
    └ a        (6)
      └ c      (7)  *)
let doc =
  Doc.of_tree
    (Tree.el "r"
       [
         Tree.el "a" [ Tree.el "b" [ Tree.el "b" [] ]; Tree.el "c" [] ];
         Tree.el "b" [];
         Tree.el "a" [ Tree.el "c" [] ];
       ])

let idx = Index.build doc

let test_ids () =
  Alcotest.(check (list int)) "a ids" [ 1; 6 ] (Array.to_list (Fixtures.ids idx "a"));
  Alcotest.(check (list int)) "b ids" [ 2; 3; 5 ] (Array.to_list (Fixtures.ids idx "b"));
  Alcotest.(check (list int)) "absent tag" [] (Array.to_list (Fixtures.ids idx "zzz"));
  Alcotest.(check int) "count" 3 (Index.count idx "b");
  let b = Index.postings idx "b" in
  Alcotest.(check (list int)) "lower_bound"
    [ 0; 0; 1; 2; 2; 3 ]
    (List.map (Index.lower_bound b) [ 0; 2; 3; 4; 5; 6 ]);
  Alcotest.(check (list int)) "lower_bound_from"
    [ 0; 0; 1; 2; 2; 3; 1; 2; 2; 3 ]
    (List.map (fun v -> Index.lower_bound_from b ~from:0 v) [ 0; 2; 3; 4; 5; 6 ]
    @ List.map (fun v -> Index.lower_bound_from b ~from:1 v) [ 3; 4; 5; 6 ])

let test_descendant_queries () =
  Alcotest.(check (list int)) "b under a(1)" [ 2; 3 ] (Index.descendants idx "b" ~root:1);
  Alcotest.(check (list int)) "b under root" [ 2; 3; 5 ] (Index.descendants idx "b" ~root:0);
  Alcotest.(check (list int)) "b under a(6)" [] (Index.descendants idx "b" ~root:6);
  Alcotest.(check (list int)) "self excluded" [ 3 ] (Index.descendants idx "b" ~root:2);
  Alcotest.(check int) "count_descendants" 2 (Index.count_descendants idx "b" ~root:1)

let test_children_queries () =
  Alcotest.(check (list int)) "a children of root" [ 1; 6 ] (Index.children idx "a" ~parent:0);
  Alcotest.(check (list int)) "b children of a(1)" [ 2 ] (Index.children idx "b" ~parent:1);
  Alcotest.(check (list int)) "none" [] (Index.children idx "c" ~parent:2)

let test_iteration_agreement () =
  Alcotest.(check (list int)) "list" [ 4; 7 ] (Index.descendants idx "c" ~root:0);
  let via_fold = Index.fold_descendants idx "c" ~root:0 (fun acc i -> acc + i) 0 in
  Alcotest.(check int) "fold" 11 via_fold

(* Agreement with a naive scan on random documents. *)
let prop_descendants_match_naive =
  QCheck2.Test.make ~name:"index subtree slice = naive scan" ~count:100
    Test_doc.gen_tree (fun t ->
      let doc = Doc.of_tree t in
      let idx = Index.build doc in
      let tags = Doc.distinct_tags doc in
      let ok = ref true in
      List.iter
        (fun tag ->
          for root = 0 to Doc.size doc - 1 do
            let naive =
              List.filter
                (fun i ->
                  String.equal (Doc.tag doc i) tag
                  && Doc.is_ancestor doc ~anc:root ~desc:i)
                (List.init (Doc.size doc) Fun.id)
            in
            if Index.descendants idx tag ~root <> naive then ok := false
          done)
        tags;
      !ok)

let suite =
  [
    Alcotest.test_case "ids" `Quick test_ids;
    Alcotest.test_case "descendant queries" `Quick test_descendant_queries;
    Alcotest.test_case "children queries" `Quick test_children_queries;
    Alcotest.test_case "iteration agreement" `Quick test_iteration_agreement;
    QCheck_alcotest.to_alcotest prop_descendants_match_naive;
  ]
