open Wp_stats
open Wp_relax

let books = Fixtures.books_doc
let syn = Synopsis.build books

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

let test_pairs_in_relation () =
  let pairs = Synopsis.pairs_in_relation syn ~anc:"book" in
  Alcotest.(check int) "title children" 2 (pairs ~desc:"title" Relation.child);
  Alcotest.(check int) "title descendants" 3
    (pairs ~desc:"title" Relation.descendant);
  let depth2 = Relation.of_edges [ Wp_pattern.Pattern.Pc; Wp_pattern.Pattern.Pc ] in
  Alcotest.(check int) "publishers at depth 2" 1 (pairs ~desc:"publisher" depth2);
  Alcotest.(check int) "absent tag" 0 (pairs ~desc:"zzz" Relation.descendant)

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
  Alcotest.(check int) "counted by the unbounded relation" 1
    (Synopsis.pairs_in_relation s ~anc:"top" ~desc:"leaf" Relation.descendant)

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
    Alcotest.test_case "pairs in relation" `Quick test_pairs_in_relation;
    Alcotest.test_case "depth cap" `Quick test_deep_documents_bucket;
    QCheck_alcotest.to_alcotest prop_exact_below_cap;
  ]
