open Wp_xml

let sample =
  Tree.el "a"
    [
      Tree.el "b" [ Tree.leaf "d" "x"; Tree.el "e" [] ];
      Tree.leaf "c" "y";
    ]

let doc = Doc.of_tree sample

let test_layout () =
  Alcotest.(check int) "size" 5 (Doc.size doc);
  Alcotest.(check string) "root tag" "a" (Doc.tag doc 0);
  (* Preorder: a b d e c *)
  Alcotest.(check (list string))
    "preorder tags"
    [ "a"; "b"; "d"; "e"; "c" ]
    (List.init 5 (Doc.tag doc));
  Alcotest.(check (option string)) "value of d" (Some "x") (Doc.value doc 2);
  Alcotest.(check (option string)) "no value on b" None (Doc.value doc 1)

let test_parents_and_children () =
  Alcotest.(check (option int)) "root parent" None (Doc.parent doc 0);
  Alcotest.(check (option int)) "b's parent" (Some 0) (Doc.parent doc 1);
  Alcotest.(check (option int)) "d's parent" (Some 1) (Doc.parent doc 2);
  Alcotest.(check (list int)) "root children" [ 1; 4 ] (Doc.children doc 0);
  Alcotest.(check (list int)) "b children" [ 2; 3 ] (Doc.children doc 1);
  Alcotest.(check (list int)) "leaf children" [] (Doc.children doc 2)

let test_subtree_intervals () =
  Alcotest.(check int) "root subtree end" 5 (Doc.subtree_end doc 0);
  Alcotest.(check int) "b subtree end" 4 (Doc.subtree_end doc 1);
  Alcotest.(check int) "leaf subtree end" 3 (Doc.subtree_end doc 2);
  Alcotest.(check bool) "b ancestor of e" true (Doc.is_ancestor doc ~anc:1 ~desc:3);
  Alcotest.(check bool) "b not ancestor of c" false (Doc.is_ancestor doc ~anc:1 ~desc:4);
  Alcotest.(check bool) "not own ancestor" false (Doc.is_ancestor doc ~anc:1 ~desc:1);
  Alcotest.(check bool) "is_parent" true (Doc.is_parent doc ~parent:1 ~child:2)

let test_dewey_assignment () =
  Alcotest.(check string) "root" "\xce\xb5" (Dewey.to_string (Doc.dewey doc 0));
  Alcotest.(check string) "b" "1" (Dewey.to_string (Doc.dewey doc 1));
  Alcotest.(check string) "d" "1.1" (Dewey.to_string (Doc.dewey doc 2));
  Alcotest.(check string) "e" "1.2" (Dewey.to_string (Doc.dewey doc 3));
  Alcotest.(check string) "c" "2" (Dewey.to_string (Doc.dewey doc 4));
  Alcotest.(check int) "depth" 2 (Doc.depth doc 2)

let test_roundtrip () =
  Alcotest.(check bool) "to_tree inverts of_tree" true
    (Tree.equal sample (Doc.to_tree doc 0))

let test_forest () =
  let f = Doc.of_forest [ Tree.el "x" []; Tree.el "y" [] ] in
  Alcotest.(check string) "synthetic root" "doc-root" (Doc.tag f 0);
  Alcotest.(check (list int)) "two children" [ 1; 2 ] (Doc.children f 0)

let test_distinct_tags () =
  Alcotest.(check (list string))
    "first-occurrence order"
    [ "a"; "b"; "d"; "e"; "c" ]
    (Doc.distinct_tags doc)

(* Random tree generator shared with other suites. *)
let gen_tree =
  let open QCheck2.Gen in
  let tag = map (fun i -> Printf.sprintf "t%d" i) (int_bound 5) in
  let value = opt (map (fun i -> Printf.sprintf "v%d" i) (int_bound 9)) in
  sized @@ fix (fun self n ->
      if n = 0 then map2 (fun t v -> { Tree.tag = t; value = v; children = [] }) tag value
      else
        map3
          (fun t v cs -> { Tree.tag = t; value = v; children = cs })
          tag value
          (list_size (int_bound 3) (self (n / 4))))

let prop_preorder_roundtrip =
  QCheck2.Test.make ~name:"of_tree . to_tree = id" ~count:200 gen_tree
    (fun t ->
      let d = Doc.of_tree t in
      Tree.equal t (Doc.to_tree d 0))

let prop_intervals_match_dewey =
  QCheck2.Test.make ~name:"interval ancestorship agrees with Dewey" ~count:100
    gen_tree (fun t ->
      let d = Doc.of_tree t in
      let n = Doc.size d in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let by_interval = Doc.is_ancestor d ~anc:i ~desc:j in
          let by_dewey = Dewey.is_ancestor (Doc.dewey d i) (Doc.dewey d j) in
          if by_interval <> by_dewey then ok := false
        done
      done;
      !ok)

let prop_size =
  QCheck2.Test.make ~name:"Doc.size = Tree.size" ~count:200 gen_tree
    (fun t -> Doc.size (Doc.of_tree t) = Tree.size t)

(* The in-place value tests agree with a copy of the value: equality,
   and membership among [String.split_on_char ' '] tokens (empty tokens
   included), over values of zero to three tokens with stray spaces. *)
let prop_value_tests_in_place =
  let open QCheck2.Gen in
  let token = oneofl [ ""; "a"; "b"; "ab"; "ba"; "a b" ] in
  let value = opt (map (String.concat " ") (list_size (int_bound 3) token)) in
  let tree =
    map
      (fun vs ->
        Tree.el "r"
          (List.map (fun v -> { Tree.tag = "c"; value = v; children = [] }) vs))
      (list_size (int_range 1 6) value)
  in
  QCheck2.Test.make ~name:"value_equals / value_has_token = on a copy"
    ~count:300 (pair tree token) (fun (t, s) ->
      let d = Doc.of_tree t in
      List.for_all
        (fun i ->
          let copy = Doc.value d i in
          Doc.value_equals d i s = (copy = Some s)
          && Doc.value_has_token d i s
             = (match copy with
               | Some v -> List.mem s (String.split_on_char ' ' v)
               | None -> false))
        (List.init (Doc.size d) Fun.id))

let suite =
  [
    Alcotest.test_case "layout" `Quick test_layout;
    Alcotest.test_case "parents and children" `Quick test_parents_and_children;
    Alcotest.test_case "subtree intervals" `Quick test_subtree_intervals;
    Alcotest.test_case "dewey assignment" `Quick test_dewey_assignment;
    Alcotest.test_case "tree roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "forest" `Quick test_forest;
    Alcotest.test_case "distinct tags" `Quick test_distinct_tags;
    QCheck_alcotest.to_alcotest prop_preorder_roundtrip;
    QCheck_alcotest.to_alcotest prop_intervals_match_dewey;
    QCheck_alcotest.to_alcotest prop_size;
    QCheck_alcotest.to_alcotest prop_value_tests_in_place;
  ]
