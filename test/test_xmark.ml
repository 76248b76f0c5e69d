open Wp_xml

let doc = Lazy.force Fixtures.xmark_doc
let idx = Lazy.force Fixtures.xmark_index

let histogram = Wp_xmark.Generator.tag_histogram doc
let count tag = Option.value (List.assoc_opt tag histogram) ~default:0

let test_determinism () =
  let a = Wp_xmark.Generator.generate ~seed:123 ~target_bytes:30_000 () in
  let b = Wp_xmark.Generator.generate ~seed:123 ~target_bytes:30_000 () in
  Alcotest.(check bool) "same seed, same document" true (Tree.equal a b);
  let c = Wp_xmark.Generator.generate ~seed:124 ~target_bytes:30_000 () in
  Alcotest.(check bool) "different seed, different document" false (Tree.equal a c)

let test_size_calibration () =
  List.iter
    (fun target ->
      let t = Wp_xmark.Generator.generate ~seed:9 ~target_bytes:target () in
      let actual = Wp_xmark.Generator.tree_bytes t in
      (* Within one item of overshoot plus a few bytes of skeleton
         accounting slack. *)
      Alcotest.(check bool)
        (Printf.sprintf "size %d within tolerance (got %d)" target actual)
        true
        (actual > target - 200 && actual - target < 20_000))
    [ 20_000; 100_000; 400_000 ]

let test_tree_bytes_agrees_with_printer () =
  let t = Wp_xmark.Generator.generate ~seed:2 ~target_bytes:25_000 () in
  Alcotest.(check int)
    "tree_bytes = |serialized|"
    (String.length (Printer.tree_to_string t))
    (Wp_xmark.Generator.tree_bytes t)

let test_structure () =
  Alcotest.(check string) "root is site" "site" (Doc.tag doc 0);
  List.iter
    (fun tag ->
      Alcotest.(check bool) (tag ^ " present") true (count tag > 0))
    [ "item"; "description"; "parlist"; "listitem"; "text"; "bold";
      "keyword"; "emph"; "mailbox"; "mail"; "name"; "incategory";
      "category"; "person"; "regions" ]

let test_recursive_parlist () =
  (* Edge generalization needs parlists nested under parlists. *)
  let nested =
    Array.exists
      (fun p -> Index.count_descendants idx "parlist" ~root:p > 0)
      (Fixtures.ids idx "parlist")
  in
  Alcotest.(check bool) "some parlist nests another" true nested

let test_optional_incategory () =
  (* Leaf deletion needs items lacking incategory. *)
  let items = Fixtures.ids idx "item" in
  let with_cat =
    Array.fold_left
      (fun acc i ->
        if Index.count_descendants idx "incategory" ~root:i > 0 then acc + 1
        else acc)
      0 items
  in
  Alcotest.(check bool) "some items have incategory" true (with_cat > 0);
  Alcotest.(check bool) "some items lack incategory" true
    (with_cat < Array.length items)

let test_shared_text () =
  (* Subtree promotion needs [text] under both [mail] and [description]. *)
  let under tag =
    Array.exists
      (fun p -> Index.count_descendants idx "text" ~root:p > 0)
      (Fixtures.ids idx tag)
  in
  Alcotest.(check bool) "text under mail" true (under "mail");
  Alcotest.(check bool) "text under description" true (under "description")

let test_queries_have_matches () =
  List.iter
    (fun (name, q) ->
      let n =
        List.length
          (Wp_pattern.Matcher.matching_roots idx (Fixtures.parse q))
      in
      Alcotest.(check bool) (name ^ " has exact matches") true (n > 0))
    [ ("Q1", Fixtures.q1); ("Q2", Fixtures.q2); ("Q3", Fixtures.q3) ]

let test_profile_knobs () =
  (* Forcing a probability to an extreme must show in the output. *)
  let profile =
    { Wp_xmark.Generator.default_profile with p_item_name = 1.0; p_incategory = 0.0 }
  in
  let doc = Wp_xmark.Generator.generate_doc ~profile ~seed:3 ~target_bytes:60_000 () in
  let idx = Index.build doc in
  let items = Fixtures.ids idx "item" in
  Alcotest.(check bool) "items exist" true (Array.length items > 0);
  Array.iter
    (fun i ->
      Alcotest.(check bool) "every item has a name" true
        (List.exists
           (fun c -> Doc.tag doc c = "name")
           (Doc.children doc i)))
    items;
  Alcotest.(check int) "no incategory anywhere" 0 (Index.count idx "incategory")

let test_rng_basics () =
  let rng = Wp_xmark.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Wp_xmark.Rng.int rng 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let f = Wp_xmark.Rng.float rng 1.0 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 1.0)
  done;
  let r1 = Wp_xmark.Rng.create 5 and r2 = Wp_xmark.Rng.create 5 in
  let s1 = List.init 50 (fun _ -> Wp_xmark.Rng.int r1 1000) in
  let s2 = List.init 50 (fun _ -> Wp_xmark.Rng.int r2 1000) in
  Alcotest.(check (list int)) "deterministic stream" s1 s2;
  let r3 = Wp_xmark.Rng.copy r1 in
  Alcotest.(check int) "copy forks the stream" (Wp_xmark.Rng.int r1 1000)
    (Wp_xmark.Rng.int r3 1000)

let test_rng_distribution () =
  let rng = Wp_xmark.Rng.create 99 in
  let n = 10_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Wp_xmark.Rng.bool rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "bool 0.3 frequency ~0.3 (got %.3f)" p)
    true
    (p > 0.27 && p < 0.33);
  let g = Wp_xmark.Rng.geometric rng 0.5 in
  Alcotest.(check bool) "geometric non-negative" true (g >= 0)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "size calibration" `Quick test_size_calibration;
    Alcotest.test_case "tree_bytes" `Quick test_tree_bytes_agrees_with_printer;
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "recursive parlist" `Quick test_recursive_parlist;
    Alcotest.test_case "optional incategory" `Quick test_optional_incategory;
    Alcotest.test_case "shared text" `Quick test_shared_text;
    Alcotest.test_case "paper queries match" `Quick test_queries_have_matches;
    Alcotest.test_case "profile knobs" `Quick test_profile_knobs;
    Alcotest.test_case "rng basics" `Quick test_rng_basics;
    Alcotest.test_case "rng distribution" `Quick test_rng_distribution;
  ]
