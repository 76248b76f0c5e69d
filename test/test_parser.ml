open Wp_xml

let parse = Parser.parse_string

let test_simple_element () =
  let t = parse "<a/>" in
  Alcotest.(check string) "tag" "a" (Tree.tag t);
  Alcotest.(check (option string)) "no value" None (Tree.value t);
  Alcotest.(check int) "no children" 0 (List.length (Tree.children t))

let test_nested () =
  let t = parse "<a><b><c/></b><d>text</d></a>" in
  Alcotest.(check int) "two children" 2 (List.length (Tree.children t));
  match Tree.children t with
  | [ b; d ] ->
      Alcotest.(check string) "b" "b" (Tree.tag b);
      Alcotest.(check (option string)) "d text" (Some "text") (Tree.value d)
  | _ -> Alcotest.fail "expected [b; d]"

let test_entities () =
  let t = parse "<a>x &amp; y &lt;z&gt; &quot;q&quot; &apos;s&apos;</a>" in
  Alcotest.(check (option string))
    "decoded" (Some {|x & y <z> "q" 's'|}) (Tree.value t)

let test_numeric_references () =
  let t = parse "<a>&#65;&#x42;</a>" in
  Alcotest.(check (option string)) "AB" (Some "AB") (Tree.value t)

let test_attributes_as_children () =
  let t = parse {|<item id="42" lang='en'><name>x</name></item>|} in
  match Tree.children t with
  | [ id; lang; name ] ->
      Alcotest.(check string) "@id tag" "@id" (Tree.tag id);
      Alcotest.(check (option string)) "@id value" (Some "42") (Tree.value id);
      Alcotest.(check string) "@lang" "@lang" (Tree.tag lang);
      Alcotest.(check (option string)) "@lang value" (Some "en") (Tree.value lang);
      Alcotest.(check string) "element child last" "name" (Tree.tag name)
  | cs -> Alcotest.fail (Printf.sprintf "expected 3 children, got %d" (List.length cs))

let test_comments_pis_cdata () =
  let t =
    parse
      "<?xml version=\"1.0\"?><!-- lead --><a><!-- inner -->\
       <?pi data?><![CDATA[raw <stuff>]]><b/></a><!-- trail -->"
  in
  Alcotest.(check (option string)) "cdata text" (Some "raw <stuff>") (Tree.value t);
  Alcotest.(check int) "one child" 1 (List.length (Tree.children t))

let test_doctype () =
  let t = parse "<!DOCTYPE site SYSTEM \"auction.dtd\"><site><a/></site>" in
  Alcotest.(check string) "root" "site" (Tree.tag t)

let test_whitespace_handling () =
  let t = parse "<a>\n  <b/>\n  <c/>\n</a>" in
  Alcotest.(check (option string)) "no blank text" None (Tree.value t);
  Alcotest.(check int) "children" 2 (List.length (Tree.children t))

let check_error input =
  match parse input with
  | exception Parser.Error _ -> ()
  | _ -> Alcotest.fail (Printf.sprintf "expected a parse error on %S" input)

let test_errors () =
  List.iter check_error
    [
      "";
      "<a>";
      "<a></b>";
      "<a><b></a></b>";
      "<a/><b/>";
      "<a attr></a>";
      "<a>&unknown;</a>";
      "< a/>";
      "<a>text";
      "text<a/>";
      "<a></a>trailing";
    ]

let test_error_position () =
  match parse "<a></b>" with
  | exception Parser.Error { position; _ } ->
      Alcotest.(check bool) "position within input" true (position <= 7)
  | _ -> Alcotest.fail "expected a parse error"

let test_parse_doc () =
  let d = Parser.parse_doc "<a><b/><c/></a>" in
  Alcotest.(check int) "doc size" 3 (Doc.size d)

let test_parse_file () =
  let path = Filename.temp_file "wp_test" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "<root><child>v</child></root>";
      close_out oc;
      let t = Parser.parse_file path in
      Alcotest.(check string) "root tag" "root" (Tree.tag t))

(* Print-parse roundtrip over random trees whose values exercise
   escaping. *)
let gen_tree_for_roundtrip =
  let open QCheck2.Gen in
  let tag = map (fun i -> Printf.sprintf "tag%d" i) (int_bound 4) in
  let value =
    opt
      (map
         (fun i -> List.nth [ "plain"; "a&b"; "<tag>"; "it's"; "say \"hi\""; "x" ] i)
         (int_bound 5))
  in
  sized @@ fix (fun self n ->
      if n = 0 then map2 (fun t v -> { Tree.tag = t; value = v; children = [] }) tag value
      else
        map3
          (fun t v cs -> { Tree.tag = t; value = v; children = cs })
          tag value
          (list_size (int_bound 3) (self (n / 4))))

(* The parser stores an element's concatenated text, so values equal to
   "" come back as None; normalize before comparing. *)
let rec normalize (t : Tree.t) =
  let value = match t.value with Some "" -> None | v -> v in
  { t with value; children = List.map normalize t.children }

let prop_roundtrip =
  QCheck2.Test.make ~name:"parse . print = id" ~count:300 gen_tree_for_roundtrip
    (fun t ->
      let t = normalize t in
      Tree.equal t (parse (Printer.tree_to_string t)))

let suite =
  [
    Alcotest.test_case "simple element" `Quick test_simple_element;
    Alcotest.test_case "nested" `Quick test_nested;
    Alcotest.test_case "entities" `Quick test_entities;
    Alcotest.test_case "numeric references" `Quick test_numeric_references;
    Alcotest.test_case "attributes as children" `Quick test_attributes_as_children;
    Alcotest.test_case "comments, PIs, CDATA" `Quick test_comments_pis_cdata;
    Alcotest.test_case "doctype" `Quick test_doctype;
    Alcotest.test_case "whitespace" `Quick test_whitespace_handling;
    Alcotest.test_case "malformed inputs" `Quick test_errors;
    Alcotest.test_case "error position" `Quick test_error_position;
    Alcotest.test_case "parse_doc" `Quick test_parse_doc;
    Alcotest.test_case "parse_file" `Quick test_parse_file;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
