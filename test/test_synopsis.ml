open Wp_stats
open Wp_relax

let books = Fixtures.books_doc
let syn = Synopsis.build books

let float_eq = Alcotest.(check (float 1e-9))

let test_tag_counts () =
  Alcotest.(check int) "books" 3 (Synopsis.tag_count syn "book");
  Alcotest.(check int) "titles" 3 (Synopsis.tag_count syn "title");
  Alcotest.(check int) "publishers" 2 (Synopsis.tag_count syn "publisher");
  Alcotest.(check int) "absent" 0 (Synopsis.tag_count syn "zzz");
  Alcotest.(check int) "wildcard = all nodes" (Wp_xml.Doc.size books)
    (Synopsis.tag_count syn "*")

let test_pair_histograms () =
  (* titles directly under books: books (a) and (b). *)
  Alcotest.(check int) "title at depth 1" 2
    (Synopsis.pair_count syn ~anc:"book" ~desc:"title" ~depth:0);
  (* book (c)'s title sits at depth 2 (under reviews). *)
  Alcotest.(check int) "title at depth 2" 1
    (Synopsis.pair_count syn ~anc:"book" ~desc:"title" ~depth:1);
  (* names: book (a) at depth 3, book (b) at depth 2. *)
  Alcotest.(check int) "name at depth 3" 1
    (Synopsis.pair_count syn ~anc:"book" ~desc:"name" ~depth:2);
  Alcotest.(check int) "name at depth 2" 1
    (Synopsis.pair_count syn ~anc:"book" ~desc:"name" ~depth:1)

let test_expected_related () =
  float_eq "title children per book" (2.0 /. 3.0)
    (Synopsis.expected_related syn ~anc:"book" ~desc:"title" Relation.child);
  float_eq "title descendants per book" 1.0
    (Synopsis.expected_related syn ~anc:"book" ~desc:"title" Relation.descendant);
  let depth2 = Relation.of_edges [ Wp_pattern.Pattern.Pc; Wp_pattern.Pattern.Pc ] in
  float_eq "publisher at depth 2 per book" (1.0 /. 3.0)
    (Synopsis.expected_related syn ~anc:"book" ~desc:"publisher" depth2);
  float_eq "absent tag" 0.0
    (Synopsis.expected_related syn ~anc:"book" ~desc:"zzz" Relation.descendant)

let test_coverage_and_emptiness () =
  float_eq "all books have a title somewhere" 1.0
    (Synopsis.coverage syn ~anc:"book" ~desc:"title");
  float_eq "two books have a publisher" (2.0 /. 3.0)
    (Synopsis.coverage syn ~anc:"book" ~desc:"publisher");
  float_eq "unbounded emptiness" (1.0 /. 3.0)
    (Synopsis.p_empty syn ~anc:"book" ~desc:"publisher" Relation.descendant);
  (* Depth-restricted emptiness is at least the unbounded one. *)
  let depth1 = Relation.child in
  Alcotest.(check bool) "restricted >= unbounded" true
    (Synopsis.p_empty syn ~anc:"book" ~desc:"publisher" depth1
    >= Synopsis.p_empty syn ~anc:"book" ~desc:"publisher" Relation.descendant)

let test_deep_documents_bucket () =
  (* A path deeper than the cap still lands in the last bucket. *)
  let rec chain n =
    if n = 0 then Wp_xml.Tree.leaf "leaf" "x"
    else Wp_xml.Tree.el "mid" [ chain (n - 1) ]
  in
  let doc = Wp_xml.Doc.of_tree (Wp_xml.Tree.el "top" [ chain 30 ]) in
  let s = Synopsis.build doc in
  Alcotest.(check int) "leaf seen from top in the capped bucket" 1
    (Synopsis.pair_count s ~anc:"top" ~desc:"leaf"
       ~depth:(Synopsis.depth_cap + 10));
  float_eq "expected via unbounded relation" 1.0
    (Synopsis.expected_related s ~anc:"top" ~desc:"leaf" Relation.descendant)

(* The synopsis is exact for depths below the cap: check against a naive
   count on random documents. *)
let prop_exact_below_cap =
  QCheck2.Test.make ~name:"synopsis pair counts are exact" ~count:60
    Test_doc.gen_tree (fun t ->
      let doc = Wp_xml.Doc.of_tree t in
      let s = Synopsis.build doc in
      let n = Wp_xml.Doc.size doc in
      let ok = ref true in
      let tags = Wp_xml.Doc.distinct_tags doc in
      List.iter
        (fun anc_tag ->
          List.iter
            (fun desc_tag ->
              for depth = 0 to 4 do
                let naive = ref 0 in
                for a = 0 to n - 1 do
                  for d = 0 to n - 1 do
                    if
                      Wp_xml.Doc.tag doc a = anc_tag
                      && Wp_xml.Doc.tag doc d = desc_tag
                      && Wp_xml.Doc.is_ancestor doc ~anc:a ~desc:d
                      && Wp_xml.Doc.depth doc d - Wp_xml.Doc.depth doc a
                         = depth + 1
                    then incr naive
                  done
                done;
                if Synopsis.pair_count s ~anc:anc_tag ~desc:desc_tag ~depth <> !naive
                then ok := false
              done)
            tags)
        tags;
      !ok)

let suite =
  [
    Alcotest.test_case "tag counts" `Quick test_tag_counts;
    Alcotest.test_case "pair histograms" `Quick test_pair_histograms;
    Alcotest.test_case "expected related" `Quick test_expected_related;
    Alcotest.test_case "coverage and emptiness" `Quick test_coverage_and_emptiness;
    Alcotest.test_case "depth cap" `Quick test_deep_documents_bucket;
    QCheck_alcotest.to_alcotest prop_exact_below_cap;
  ]
