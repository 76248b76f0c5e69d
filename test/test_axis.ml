open Wp_xml

let doc = Fixtures.books_doc
let idx = Fixtures.books_index

(* Locate a node by tag under a given root, for readable assertions. *)
let find_first tag =
  let rec go i = if Doc.tag doc i = tag then i else go (i + 1) in
  go 0

let test_child_axis () =
  let book = find_first "book" in
  let title = find_first "title" in
  Alcotest.(check (list int)) "title child of book" [ title ]
    (Axis.select idx Axis.Child ~from:book ~tag:"title");
  Alcotest.(check (list int)) "book not child of title" []
    (Axis.select idx Axis.Child ~from:title ~tag:"book")

let test_descendant_axis () =
  let book = find_first "book" in
  let name = find_first "name" in
  Alcotest.(check (list int)) "name descendant of book" [ name ]
    (Axis.select idx Axis.Descendant ~from:book ~tag:"name");
  Alcotest.(check (list int)) "not self" []
    (Axis.select idx Axis.Descendant ~from:book ~tag:"book")

let test_select () =
  let book = find_first "book" in
  Alcotest.(check int) "one title child" 1
    (List.length (Axis.select idx Axis.Child ~from:book ~tag:"title"));
  Alcotest.(check int) "name by descendant" 1
    (List.length (Axis.select idx Axis.Descendant ~from:book ~tag:"name"));
  Alcotest.(check int) "no location in book a" 0
    (List.length (Axis.select idx Axis.Descendant ~from:book ~tag:"location"))

(* select agrees with a naive scan testing every node against the
   document's own parent and ancestor tests. *)
let prop_select_matches_test =
  let test doc axis ~from ~target =
    match axis with
    | Axis.Child -> Doc.is_parent doc ~parent:from ~child:target
    | Axis.Descendant -> Doc.is_ancestor doc ~anc:from ~desc:target
  in
  let axes = [ Axis.Child; Axis.Descendant ] in
  QCheck2.Test.make ~name:"select = filter test" ~count:60 Test_doc.gen_tree
    (fun t ->
      let doc = Doc.of_tree t in
      let idx = Index.build doc in
      let tags = Doc.distinct_tags doc in
      List.for_all
        (fun axis ->
          List.for_all
            (fun tag ->
              let ok = ref true in
              for from = 0 to Doc.size doc - 1 do
                let naive =
                  List.filter
                    (fun i ->
                      String.equal (Doc.tag doc i) tag
                      && test doc axis ~from ~target:i)
                    (List.init (Doc.size doc) Fun.id)
                in
                if Axis.select idx axis ~from ~tag <> naive then ok := false
              done;
              !ok)
            tags)
        axes)

let suite =
  [
    Alcotest.test_case "child" `Quick test_child_axis;
    Alcotest.test_case "descendant" `Quick test_descendant_axis;
    Alcotest.test_case "select" `Quick test_select;
    QCheck_alcotest.to_alcotest prop_select_matches_test;
  ]
