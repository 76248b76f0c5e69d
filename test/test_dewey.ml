open Wp_xml

let d l = Dewey.of_array (Array.of_list l)

let test_root_properties () =
  let root = d [] in
  Alcotest.(check string) "root prints as epsilon" "\xce\xb5"
    (Dewey.to_string root);
  Alcotest.(check bool) "root is an ancestor of a child" true
    (Dewey.is_ancestor root (d [ 1 ]));
  Alcotest.(check bool) "root is no ancestor of itself" false
    (Dewey.is_ancestor root root)

let test_child_and_parent () =
  let c = d [ 3 ] in
  Alcotest.(check string) "dotted form" "3" (Dewey.to_string c);
  Alcotest.(check bool) "parent is an ancestor" true
    (Dewey.is_ancestor (d []) c);
  Alcotest.check_raises "rank 0 rejected" (Invalid_argument
    "Dewey: child ranks are 1-based and positive") (fun () ->
      ignore (d [ 0 ]))

let test_axes () =
  let anc = d [ 1; 2 ] and desc = d [ 1; 2; 3; 4 ] in
  Alcotest.(check bool) "ancestor" true (Dewey.is_ancestor anc desc);
  Alcotest.(check bool) "not ancestor of self" false (Dewey.is_ancestor anc anc);
  Alcotest.(check bool) "descendant is no ancestor" false
    (Dewey.is_ancestor desc anc);
  Alcotest.(check bool) "not across siblings" false
    (Dewey.is_ancestor (d [ 1; 3 ]) desc)

(* Properties over random labels. *)
let gen_ranks = QCheck2.Gen.(list_size (int_bound 6) (int_range 1 9))

let prop_parent_is_ancestor =
  QCheck2.Test.make ~name:"parent is an ancestor" ~count:500 gen_ranks
    (fun ranks ->
      match List.rev ranks with
      | [] -> not (Dewey.is_ancestor (d ranks) (d ranks))
      | _ :: rev_parent -> Dewey.is_ancestor (d (List.rev rev_parent)) (d ranks))

let suite =
  [
    Alcotest.test_case "root properties" `Quick test_root_properties;
    Alcotest.test_case "child and parent" `Quick test_child_and_parent;
    Alcotest.test_case "axes" `Quick test_axes;
    QCheck_alcotest.to_alcotest prop_parent_is_ancestor;
  ]
