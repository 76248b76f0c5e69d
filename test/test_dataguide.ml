(* The annotated strong dataguide: structural invariants against the
   documents it summarizes, exact tag and pair counts against naive
   counts, the per-document memo, and soundness of pattern selection —
   every node bound by an exact embedding must be admitted by the
   guide's depth and preorder-window filters (the twig join skips
   everything else). *)

module Doc = Wp_xml.Doc
module Index = Wp_xml.Index
module Dataguide = Wp_stats.Dataguide
module Pattern = Wp_pattern.Pattern
module Relation = Wp_relax.Relation

let docs () =
  [
    ("books", Fixtures.books_doc);
    ("xmark-default", Lazy.force Fixtures.xmark_doc);
    ( "xmark-rich",
      Wp_xmark.Generator.generate_doc
        ~profile:Wp_xmark.Generator.rich_profile ~seed:3 ~target_bytes:40_000
        () );
    ( "xmark-sparse",
      Wp_xmark.Generator.generate_doc
        ~profile:Wp_xmark.Generator.sparse_profile ~seed:4 ~target_bytes:40_000
        () );
  ]

(* Walk the document alongside the guide: every node's label path must
   resolve to a guide node of the right depth whose id window contains
   it, and the per-path counts must sum to the document size. *)
let test_structure () =
  List.iter
    (fun (name, doc) ->
      let g = Dataguide.build doc in
      let n = Doc.size doc in
      Alcotest.(check bool)
        (name ^ " guide no larger than doc")
        true
        (Dataguide.size g <= n);
      Alcotest.(check int)
        (name ^ " counts sum to doc size")
        n
        (List.init (Dataguide.size g) (Dataguide.count g)
        |> List.fold_left ( + ) 0);
      Alcotest.(check int)
        (name ^ " doc_nodes")
        n (Dataguide.doc_nodes g))
    (docs ())

let test_memoized () =
  let idx = Fixtures.books_index in
  let a = Dataguide.of_index idx in
  let b = Dataguide.of_index idx in
  Alcotest.(check bool) "same guide returned" true (a == b)

(* Two domains asking at once for a fresh document's guide get the one
   cached first, and later calls return it too. *)
let test_concurrent_first_build () =
  let tree = Doc.to_tree (Lazy.force Fixtures.xmark_doc) 0 in
  for trial = 1 to 10 do
    let idx = Index.build (Doc.of_tree tree) in
    match Fixtures.on_domains 2 (fun _ -> Dataguide.of_index idx) with
    | [ g0; g1 ] ->
        Alcotest.(check bool)
          (Printf.sprintf "trial %d: one guide" trial) true (g0 == g1);
        Alcotest.(check bool)
          (Printf.sprintf "trial %d: cached" trial) true
          (Dataguide.of_index idx == g0)
    | _ -> assert false
  done

(* The memo holds documents weakly: once nothing else references a
   document, it is collected although its guide was memoized. *)
let test_memo_drops_documents () =
  let collected = ref false in
  let memoize () =
    let doc = Doc.of_tree (Wp_xml.Tree.el "bib" [ Fixtures.book_a ]) in
    Gc.finalise (fun _ -> collected := true) doc;
    ignore (Sys.opaque_identity (Dataguide.of_index (Index.build doc)))
  in
  memoize ();
  Gc.full_major ();
  Alcotest.(check bool) "dropped document collected" true !collected

(* --- exact counts --- *)

let books = Dataguide.build Fixtures.books_doc
let at_depth d = { Relation.min_depth = d; max_depth = Some d }

let test_tag_counts () =
  Alcotest.(check int) "books" 3 (Dataguide.tag_count books "book");
  Alcotest.(check int) "titles" 3 (Dataguide.tag_count books "title");
  Alcotest.(check int) "publishers" 2 (Dataguide.tag_count books "publisher");
  Alcotest.(check int) "absent" 0 (Dataguide.tag_count books "zzz");
  Alcotest.(check int) "wildcard = all nodes" (Doc.size Fixtures.books_doc)
    (Dataguide.tag_count books Index.wildcard)

(* Pairs at one exact depth gap below a book. *)
let test_pair_histograms () =
  let pairs = Dataguide.pairs_in_relation books ~anc:"book" in
  (* Titles directly under books (a) and (b); book (c)'s sits under
     reviews. *)
  Alcotest.(check int) "title at depth 1" 2 (pairs ~desc:"title" (at_depth 1));
  Alcotest.(check int) "title at depth 2" 1 (pairs ~desc:"title" (at_depth 2));
  (* Names: book (a) at depth 3, book (b) at depth 2. *)
  Alcotest.(check int) "name at depth 3" 1 (pairs ~desc:"name" (at_depth 3));
  Alcotest.(check int) "name at depth 2" 1 (pairs ~desc:"name" (at_depth 2))

let test_pairs_in_relation () =
  let pairs = Dataguide.pairs_in_relation books ~anc:"book" in
  Alcotest.(check int) "title children" 2 (pairs ~desc:"title" Relation.child);
  Alcotest.(check int) "title descendants" 3
    (pairs ~desc:"title" Relation.descendant);
  let depth2 = Relation.of_edges [ Pattern.Pc; Pattern.Pc ] in
  Alcotest.(check int) "publishers at depth 2" 1 (pairs ~desc:"publisher" depth2);
  Alcotest.(check int) "absent tag" 0 (pairs ~desc:"zzz" Relation.descendant)

(* Depth gaps are counted exactly however deep the document: a leaf 31
   levels below its ancestor is seen at that gap and at no other. *)
let test_deep_documents_exact () =
  let rec chain n =
    if n = 0 then Wp_xml.Tree.leaf "leaf" "x"
    else Wp_xml.Tree.el "mid" [ chain (n - 1) ]
  in
  let g = Dataguide.build (Doc.of_tree (Wp_xml.Tree.el "top" [ chain 30 ])) in
  let pairs = Dataguide.pairs_in_relation g ~anc:"top" ~desc:"leaf" in
  Alcotest.(check int) "at its gap" 1 (pairs (at_depth 31));
  Alcotest.(check int) "not one level short" 0 (pairs (at_depth 30));
  Alcotest.(check int) "not beyond" 0
    (pairs { Relation.min_depth = 32; max_depth = None });
  Alcotest.(check int) "unbounded relation" 1 (pairs Relation.descendant);
  Alcotest.(check int) "mid-to-mid pairs" (29 * 30 / 2)
    (Dataguide.pairs_in_relation g ~anc:"mid" ~desc:"mid" Relation.descendant)

(* Random trees, some hung below a spine of up to 24 nodes (each with
   an optional leaf beside the spine) so depth gaps run past 16
   levels. *)
let gen_deep_tree =
  let open QCheck2.Gen in
  let tag = map (Printf.sprintf "t%d") (int_bound 5) in
  let leaf = map (fun t -> Wp_xml.Tree.el t []) tag in
  let spine = list_size (int_bound 24) (pair tag (opt leaf)) in
  map2
    (fun spine t ->
      List.fold_left
        (fun child (tag, beside) ->
          Wp_xml.Tree.el tag (child :: Option.to_list beside))
        t spine)
    spine Test_doc.gen_tree

(* Naive counts: every node by tag, and every (ancestor, descendant)
   node pair binned by tag pair (wildcard included) and depth gap, then
   summed over each relation the document's height admits. *)
let prop_counts_exact =
  QCheck2.Test.make ~name:"counts equal naive counts" ~count:60
    gen_deep_tree (fun t ->
      let doc = Doc.of_tree t in
      let g = Dataguide.build doc in
      let n = Doc.size doc in
      let h = Dataguide.height g in
      let tags = Index.wildcard :: Doc.distinct_tags doc in
      let matches tag i =
        String.equal tag Index.wildcard || String.equal tag (Doc.tag doc i)
      in
      let naive_count tag =
        List.length (List.filter (matches tag) (List.init n Fun.id))
      in
      let gaps = Hashtbl.create 64 in
      let bump key gap =
        let by_gap =
          match Hashtbl.find_opt gaps key with
          | Some a -> a
          | None ->
              let a = Array.make (h + 1) 0 in
              Hashtbl.add gaps key a;
              a
        in
        by_gap.(gap) <- by_gap.(gap) + 1
      in
      for a = 0 to n - 1 do
        for d = 0 to n - 1 do
          if Doc.is_ancestor doc ~anc:a ~desc:d then
            let gap = Doc.depth doc d - Doc.depth doc a in
            List.iter
              (fun anc ->
                List.iter
                  (fun desc -> bump (anc, desc) gap)
                  [ Doc.tag doc d; Index.wildcard ])
              [ Doc.tag doc a; Index.wildcard ]
        done
      done;
      let admits (r : Relation.t) gap =
        gap >= r.min_depth
        && Option.fold ~none:true ~some:(fun m -> gap <= m) r.max_depth
      in
      let relations =
        List.concat_map
          (fun lo ->
            { Relation.min_depth = lo; max_depth = None }
            :: List.init (h + 2 - lo) (fun i ->
                   { Relation.min_depth = lo; max_depth = Some (lo + i) }))
          (List.init (h + 1) succ)
      in
      List.for_all (fun tag -> Dataguide.tag_count g tag = naive_count tag) tags
      && List.for_all
           (fun anc ->
             List.for_all
               (fun desc ->
                 let by_gap =
                   Option.value (Hashtbl.find_opt gaps (anc, desc))
                     ~default:[||]
                 in
                 List.for_all
                   (fun r ->
                     let naive = ref 0 in
                     Array.iteri
                       (fun gap c -> if admits r gap then naive := !naive + c)
                       by_gap;
                     Dataguide.pairs_in_relation g ~anc ~desc r = !naive)
                   relations)
               tags)
           tags)

(* Selection soundness: run the exact engine, then check every binding
   of every answer against the selection's depth rows and windows. *)
let admitted (sel : Dataguide.selection) doc q node =
  let d = Doc.depth doc node in
  d < Array.length sel.depth_ok.(q)
  && sel.depth_ok.(q).(d)
  && Array.exists (fun (lo, hi) -> lo <= node && node <= hi) sel.windows.(q)

let test_selection_sound () =
  List.iter
    (fun (name, doc) ->
      let idx = Index.build doc in
      let g = Dataguide.build doc in
      List.iter
        (fun query ->
          let pat = Fixtures.parse query in
          let sel = Dataguide.select g pat in
          let plan =
            Whirlpool.Run.compile ~config:Wp_relax.Relaxation.exact idx pat
          in
          let r = Whirlpool.Engine.run plan ~k:50 in
          List.iter
            (fun (e : Whirlpool.Topk_set.entry) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s %s has exact answers only satisfiable"
                   name query)
                true sel.satisfiable;
              Array.iteri
                (fun q node ->
                  if node <> Whirlpool.Partial_match.unbound then
                    Alcotest.(check bool)
                      (Printf.sprintf
                         "%s %s root %d: binding q%d=%d admitted by guide"
                         name query e.root q node)
                      true
                      (admitted sel doc q node))
                e.bindings)
            r.answers)
        [
          Fixtures.q1;
          Fixtures.q2;
          Fixtures.q3;
          "//keyword";
          "/book[./title]";
        ])
    (docs ())

let test_unsatisfiable () =
  let g = Dataguide.build Fixtures.books_doc in
  let sel = Dataguide.select g (Fixtures.parse "//parlist") in
  Alcotest.(check bool) "absent tag unsatisfiable" false sel.satisfiable;
  (* A path that exists tag-wise but not shape-wise: title directly
     under the document root. *)
  let sel2 = Dataguide.select g (Fixtures.parse "/title") in
  Alcotest.(check bool) "wrong-depth path unsatisfiable" false
    sel2.satisfiable;
  let sel3 = Dataguide.select g (Fixtures.parse "/book[./title]") in
  Alcotest.(check bool) "real path satisfiable" true sel3.satisfiable

let suite =
  [
    Alcotest.test_case "structure invariants" `Quick test_structure;
    Alcotest.test_case "of_index memoized" `Quick test_memoized;
    Alcotest.test_case "concurrent first build" `Quick
      test_concurrent_first_build;
    Alcotest.test_case "memo drops documents" `Quick test_memo_drops_documents;
    Alcotest.test_case "tag counts" `Quick test_tag_counts;
    Alcotest.test_case "pair histograms" `Quick test_pair_histograms;
    Alcotest.test_case "pairs in relation" `Quick test_pairs_in_relation;
    Alcotest.test_case "deep documents exact" `Quick test_deep_documents_exact;
    QCheck_alcotest.to_alcotest prop_counts_exact;
    Alcotest.test_case "selection admits all exact bindings" `Quick
      test_selection_sound;
    Alcotest.test_case "unsatisfiable patterns detected" `Quick
      test_unsatisfiable;
  ]
