open Wp_score

let idx = Fixtures.books_index
let parse = Fixtures.parse
let comps q = Component.of_pattern ~doc_root_tag:"bib" (parse q)

let book_a, book_b, book_c =
  match Fixtures.book_roots with
  | [ a; b; c ] -> (a, b, c)
  | _ -> assert false

let float_eq = Alcotest.(check (float 1e-9))

let test_idf_values () =
  let c = comps Fixtures.q2a in
  (* All three books are children of the collection root. *)
  float_eq "root component idf" 0.0 (Tfidf.idf idx c.(0));
  (* title='wodehouse' as a child: books (a) and (b). *)
  float_eq "title idf" (log (3.0 /. 2.0)) (Tfidf.idf idx c.(1));
  (* info as a child: books (a) and (b). *)
  float_eq "info idf" (log (3.0 /. 2.0)) (Tfidf.idf idx c.(2));
  (* publisher at depth exactly 2: only book (a). *)
  float_eq "publisher idf" (log 3.0) (Tfidf.idf idx c.(3));
  (* name='psmith' at depth exactly 3: only book (a). *)
  float_eq "name idf" (log 3.0) (Tfidf.idf idx c.(4))

let test_idf_no_satisfier () =
  let c = comps "/book[./nonexistent]" in
  (* No book satisfies the predicate: idf falls back to log(total+1). *)
  float_eq "smoothed idf" (log 4.0) (Tfidf.idf idx c.(1))

let test_idf_empty_candidate_set () =
  let c = comps "/pamphlet[./title]" in
  float_eq "no candidates: idf 0" 0.0 (Tfidf.idf idx c.(1))

let test_tf_values () =
  let c = comps Fixtures.q2d in
  (* q2d's title component is descendant-based. *)
  Alcotest.(check int) "book a: one title" 1 (Tfidf.tf idx c.(1) ~root:book_a);
  Alcotest.(check int) "book c: one (nested) title" 1
    (Tfidf.tf idx c.(1) ~root:book_c);
  let c = comps Fixtures.q2a in
  Alcotest.(check int) "child-only tf misses nested title" 0
    (Tfidf.tf idx c.(1) ~root:book_c);
  (* tf counts multiplicity. *)
  let multi =
    Wp_xml.Doc.of_forest ~root_tag:"bib"
      [
        Wp_xml.Tree.el "book"
          [ Wp_xml.Tree.leaf "title" "x"; Wp_xml.Tree.leaf "title" "x" ];
      ]
  in
  let midx = Wp_xml.Index.build multi in
  let c = Component.of_pattern ~doc_root_tag:"bib" (parse "/book[./title = 'x']") in
  Alcotest.(check int) "two titles, tf = 2" 2 (Tfidf.tf midx c.(1) ~root:1)

let test_satisfies () =
  let c = comps Fixtures.q2a in
  (* book (a)'s title node is its first child. *)
  let title_a = List.hd (Wp_xml.Doc.children Fixtures.books_doc book_a) in
  Alcotest.(check bool) "title satisfies" true
    (Tfidf.satisfies idx c.(1) ~root:book_a ~target:title_a);
  Alcotest.(check bool) "wrong root" false
    (Tfidf.satisfies idx c.(1) ~root:book_b ~target:title_a)

let test_score_aggregates () =
  let c = comps Fixtures.q2a in
  let expected_a =
    0.0 +. log (3.0 /. 2.0) +. log (3.0 /. 2.0) +. log 3.0 +. log 3.0
  in
  float_eq "book a score" expected_a (Tfidf.score idx c ~root:book_a);
  (* book b satisfies title and info only. *)
  float_eq "book b score" (2.0 *. log (3.0 /. 2.0)) (Tfidf.score idx c ~root:book_b);
  float_eq "book c score" 0.0 (Tfidf.score idx c ~root:book_c)

let test_rank () =
  let ranked = Tfidf.rank idx (parse Fixtures.q2d) ~k:3 in
  Alcotest.(check int) "three candidates" 3 (List.length ranked);
  (* All books have exactly one wodehouse title reachable by descendant,
     so scores tie and ranking falls back to document order. *)
  Alcotest.(check (list int)) "document order on ties" [ book_a; book_b; book_c ]
    (List.map fst ranked);
  let ranked = Tfidf.rank idx (parse Fixtures.q2a) ~k:2 in
  Alcotest.(check int) "k truncates" 2 (List.length ranked);
  Alcotest.(check int) "book a first" book_a (fst (List.hd ranked))

let test_rank_scores_match_score () =
  let pat = parse Fixtures.q2c in
  let c = Component.of_pattern ~doc_root_tag:"bib" pat in
  List.iter
    (fun (root, s) -> float_eq "rank score = score" (Tfidf.score idx c ~root) s)
    (Tfidf.rank idx pat ~k:10)

(* --- the merge sweep against the definition ---

   The reference is the per-root count the sweep replaced: a source
   satisfies the component iff its tf is positive, and idf divides the
   source count by the number of satisfying sources. *)

let reference_satisfying ix (c : Component.t) =
  let sources =
    if c.from_doc_root then [| Wp_xml.Doc.root (Wp_xml.Index.doc ix) |]
    else Fixtures.ids ix c.root_tag
  in
  Array.map (fun n -> Tfidf.tf ix c ~root:n > 0) sources

let reference_satisfying_roots ix c =
  Array.fold_left
    (fun acc ok -> if ok then acc + 1 else acc)
    0 (reference_satisfying ix c)

let reference_idf ix (c : Component.t) =
  let total =
    if c.from_doc_root then 1 else Wp_xml.Index.count ix c.root_tag
  in
  if total = 0 then 0.0
  else
    let satisfying = reference_satisfying_roots ix c in
    if satisfying = 0 then log (float_of_int (total + 1))
    else log (float_of_int total /. float_of_int satisfying)

(* Few tags, so same-tag sources nest (parlist/listitem-style
   recursion); values hold a space so token relaxation differs from
   equality. *)
let gen_sweep_tree =
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "c" ] in
  let value = oneofl [ None; Some "x"; Some "y"; Some "x y"; Some "z x" ] in
  sized_size (int_bound 60)
  @@ fix (fun self n ->
         if n <= 1 then
           map2
             (fun t v -> { Wp_xml.Tree.tag = t; value = v; children = [] })
             tag value
         else
           map3
             (fun t v cs -> { Wp_xml.Tree.tag = t; value = v; children = cs })
             tag value
             (list_size (int_range 1 3) (self (n / 2))))

let gen_component =
  let open QCheck2.Gen in
  let* root_tag = oneofl [ "a"; "b"; "c"; Wp_xml.Index.wildcard; "absent" ] in
  let* target_tag = oneofl [ "a"; "b"; "c"; Wp_xml.Index.wildcard; "absent" ] in
  let* target_value = oneofl [ None; Some "x"; Some "y"; Some "x y" ] in
  let* value_tokens = bool in
  let* min_depth = int_range 1 3 in
  let* max_depth = opt (map (fun w -> min_depth + w) (int_bound 2)) in
  let+ from_doc_root = frequency [ (4, return false); (1, return true) ] in
  {
    Component.node = 1;
    root_tag;
    target_tag;
    target_value;
    value_tokens;
    relation = { Wp_relax.Relation.min_depth; max_depth };
    from_doc_root;
  }

let print_case (tree, cs) =
  Format.asprintf "%s@.%a"
    (Wp_xml.Printer.tree_to_string tree)
    (Format.pp_print_list Component.pp)
    cs

(* Both load paths: built in memory, and written to a .wpidx file and
   memory-mapped back. *)
let with_both_indexes doc f =
  f "mem" (Wp_xml.Index.build doc);
  let path = Filename.temp_file "wp-tfidf-test" ".wpidx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let (_ : int) = Wp_storage.Index_file.write path doc in
      match Wp_storage.Index_file.open_index path with
      | Ok h -> f "mapped" (Wp_storage.Index_file.index h)
      | Error e -> failwith (Wp_storage.Index_file.error_message e))

let prop_sweep_matches_definition =
  QCheck2.Test.make ~name:"merge sweep = per-root tf > 0 fold" ~count:200
    ~print:print_case
    QCheck2.Gen.(pair gen_sweep_tree (list_size (int_range 1 8) gen_component))
    (fun (tree, cs) ->
      with_both_indexes (Wp_xml.Doc.of_tree tree) (fun backend ix ->
          List.iter
            (fun c ->
              let sweep = Tfidf.sweep ix c in
              let got = sweep.count
              and want = reference_satisfying_roots ix c in
              if got <> want then
                QCheck2.Test.fail_reportf "%s: satisfying count %d, want %d"
                  backend got want;
              Array.iteri
                (fun i ok ->
                  if Wp_score.Component_table.sweep_mem sweep.bits i <> ok then
                    QCheck2.Test.fail_reportf "%s: bit %d is %b, want %b"
                      backend i (not ok) ok)
                (reference_satisfying ix c);
              let got = Tfidf.idf ix c and want = reference_idf ix c in
              if not (Float.equal got want) then
                QCheck2.Test.fail_reportf "%s: idf %h, want %h" backend got
                  want)
            cs);
      true)

let suite =
  [
    Alcotest.test_case "idf values" `Quick test_idf_values;
    Alcotest.test_case "idf without satisfiers" `Quick test_idf_no_satisfier;
    Alcotest.test_case "idf empty candidates" `Quick test_idf_empty_candidate_set;
    Alcotest.test_case "tf values" `Quick test_tf_values;
    Alcotest.test_case "satisfies" `Quick test_satisfies;
    Alcotest.test_case "score aggregates" `Quick test_score_aggregates;
    Alcotest.test_case "rank" `Quick test_rank;
    Alcotest.test_case "rank/score agreement" `Quick test_rank_scores_match_score;
    QCheck_alcotest.to_alcotest prop_sweep_matches_definition;
  ]
