open Wp_relax
open Wp_pattern

let parse = Fixtures.parse
let idx = Fixtures.books_index

let test_configs () =
  Alcotest.(check string) "all" "edge-gen+leaf-del+promo"
    (Format.asprintf "%a" Relaxation.pp_config Relaxation.all);
  Alcotest.(check string) "exact" "exact"
    (Format.asprintf "%a" Relaxation.pp_config Relaxation.exact)

let test_relax_to_root () =
  let pc2 = Relation.of_edges [ Pattern.Pc; Pattern.Pc ] in
  let r = Relaxation.relax_to_root Relaxation.all pc2 in
  Alcotest.(check bool) "all: any-depth descendant" true
    (r.min_depth = 1 && r.max_depth = None);
  let eg_only = { Relaxation.exact with edge_generalization = true } in
  let r = Relaxation.relax_to_root eg_only pc2 in
  Alcotest.(check bool) "edge-gen only keeps min depth" true
    (r.min_depth = 2 && r.max_depth = None);
  let r = Relaxation.relax_to_root Relaxation.exact pc2 in
  Alcotest.(check bool) "exact: unchanged" true (Relation.equal r pc2)

let test_single_steps_counts () =
  let pat = parse Fixtures.q1 in
  (* //item/description/parlist: two pc edges below the root; root edge is
     already ad. *)
  Alcotest.(check int) "edge generalizations" 2
    (List.length (Relaxation.edge_generalizations pat));
  (* only parlist is a leaf *)
  Alcotest.(check int) "leaf deletions" 1
    (List.length (Relaxation.leaf_deletions pat));
  (* only parlist has a grand-parent inside the pattern *)
  Alcotest.(check int) "subtree promotions" 1
    (List.length (Relaxation.subtree_promotions pat))

let test_single_step_shapes () =
  let pat = parse "/book[./info/publisher]" in
  let promoted = Relaxation.subtree_promotions pat in
  (match promoted with
  | [ p ] ->
      Alcotest.(check string) "promotion reattaches under the root"
        "/book[./info and .//publisher]" (Pattern.to_string p)
  | l -> Alcotest.fail (Printf.sprintf "expected one promotion, got %d" (List.length l)));
  let deleted = Relaxation.leaf_deletions pat in
  match deleted with
  | [ p ] -> Alcotest.(check string) "leaf deletion" "/book[./info]" (Pattern.to_string p)
  | l -> Alcotest.fail (Printf.sprintf "expected one deletion, got %d" (List.length l))

let test_figure2_derivations () =
  (* Figure 2(b) is 2(a) with edge generalization on (book, title). *)
  let q2a = parse Fixtures.q2a and q2b = parse Fixtures.q2b in
  let eg = Relaxation.edge_generalizations q2a in
  Alcotest.(check bool) "2(b) is a single-step relaxation of 2(a)" true
    (List.exists (Pattern.equal q2b) eg);
  (* 2(c) and 2(d) are reachable in the closure of 2(a). *)
  let closure = Relaxation.closure Relaxation.all q2a in
  let q2c = parse Fixtures.q2c and q2d = parse Fixtures.q2d in
  let mem q = List.exists (fun p -> Relaxation.canonical_key p = Relaxation.canonical_key q) closure in
  Alcotest.(check bool) "2(c) in closure" true (mem q2c);
  Alcotest.(check bool) "2(d) in closure" true (mem q2d)

let test_closure_contains_original () =
  let pat = parse Fixtures.q1 in
  let closure = Relaxation.closure Relaxation.all pat in
  Alcotest.(check bool) "original included" true
    (List.exists (Pattern.equal pat) closure);
  Alcotest.(check bool) "closure grows" true (List.length closure > 4)

let test_closure_exact_is_singleton () =
  let pat = parse Fixtures.q2 in
  Alcotest.(check int) "no relaxations, no growth" 1
    (List.length (Relaxation.closure Relaxation.exact pat))

(* Soundness: every single-step relaxation preserves the matches of the
   original query. *)
let preserves_matches pat relaxed_list =
  let original = Wp_pattern.Matcher.matching_roots idx pat in
  List.for_all
    (fun relaxed ->
      let relaxed_roots = Wp_pattern.Matcher.matching_roots idx relaxed in
      List.for_all (fun r -> List.mem r relaxed_roots) original)
    relaxed_list

let test_steps_preserve_matches () =
  List.iter
    (fun q ->
      let pat = parse q in
      Alcotest.(check bool) ("edge gen preserves: " ^ q) true
        (preserves_matches pat (Relaxation.edge_generalizations pat));
      Alcotest.(check bool) ("leaf del preserves: " ^ q) true
        (preserves_matches pat (Relaxation.leaf_deletions pat));
      Alcotest.(check bool) ("promotion preserves: " ^ q) true
        (preserves_matches pat (Relaxation.subtree_promotions pat)))
    [ Fixtures.q2a; Fixtures.q2b; Fixtures.q2c; Fixtures.q2d;
      "/book[./info/publisher/name = 'psmith']" ]

let prop_steps_preserve_matches_random =
  QCheck2.Test.make ~name:"relaxation steps preserve matches" ~count:80
    QCheck2.Gen.(pair Test_doc.gen_tree Test_matcher.small_pattern_gen)
    (fun (tree, pat) ->
      let doc = Wp_xml.Doc.of_tree tree in
      let idx = Wp_xml.Index.build doc in
      let original = Wp_pattern.Matcher.matching_roots idx pat in
      List.for_all
        (fun relaxed ->
          let rr = Wp_pattern.Matcher.matching_roots idx relaxed in
          List.for_all (fun r -> List.mem r rr) original)
        (Relaxation.steps Relaxation.all pat))

let structural_configs =
  List.concat_map
    (fun eg ->
      List.concat_map
        (fun ld ->
          List.map
            (fun sp ->
              {
                Relaxation.exact with
                edge_generalization = eg;
                leaf_deletion = ld;
                subtree_promotion = sp;
              })
            [ false; true ])
        [ false; true ])
    [ false; true ]

module Keys = Set.Make (String)

let keys pats = Keys.of_list (List.map Relaxation.canonical_key pats)

(* The lattice's views agree: the labeled closure covers the same shapes
   as the plain one (it only keeps apart same-shaped points of different
   provenance), and every point the plain closure reaches at depth d is a
   single step from a point at depth d - 1. *)
let prop_lattice_views_agree =
  QCheck2.Test.make ~name:"closure and closure_labeled agree" ~count:60
    Test_matcher.small_pattern_gen (fun pat ->
      List.for_all
        (fun config ->
          let plain = Relaxation.closure config pat in
          let labeled = List.map fst (Relaxation.closure_labeled config pat) in
          let with_steps = Relaxation.closure_with_steps config pat in
          let reached = Hashtbl.create 64 in
          List.iter
            (fun (q, d) ->
              let ks = keys (Relaxation.steps config q) in
              Hashtbl.replace reached (d + 1)
                (Keys.union ks
                   (Option.value (Hashtbl.find_opt reached (d + 1))
                      ~default:Keys.empty)))
            with_steps;
          Keys.equal (keys plain) (keys labeled)
          && List.length plain <= List.length labeled
          && (match List.filter (fun (_, d) -> d = 0) with_steps with
             | [ (p, _) ] -> Pattern.equal p pat
             | _ -> false)
          && List.for_all
               (fun (p, d) ->
                 d = 0
                 || Keys.mem (Relaxation.canonical_key p)
                      (Option.value (Hashtbl.find_opt reached d)
                         ~default:Keys.empty))
               with_steps)
        structural_configs)

let suite =
  [
    Alcotest.test_case "configs" `Quick test_configs;
    Alcotest.test_case "relax_to_root" `Quick test_relax_to_root;
    Alcotest.test_case "single step counts" `Quick test_single_steps_counts;
    Alcotest.test_case "single step shapes" `Quick test_single_step_shapes;
    Alcotest.test_case "figure 2 derivations" `Quick test_figure2_derivations;
    Alcotest.test_case "closure contains original" `Quick test_closure_contains_original;
    Alcotest.test_case "exact closure singleton" `Quick test_closure_exact_is_singleton;
    Alcotest.test_case "steps preserve matches" `Quick test_steps_preserve_matches;
    QCheck_alcotest.to_alcotest prop_steps_preserve_matches_random;
    QCheck_alcotest.to_alcotest prop_lattice_views_agree;
  ]
