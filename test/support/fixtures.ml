(* Shared documents and queries used across test suites. *)

open Wp_xml

(* The heterogeneous book collection of the paper's Figure 1. *)
let book_a =
  Tree.el "book"
    [
      Tree.leaf "title" "wodehouse";
      Tree.el "info"
        [
          Tree.el "publisher" [ Tree.leaf "name" "psmith" ];
          Tree.leaf "price" "48.95";
        ];
      Tree.leaf "isbn" "1234";
    ]

let book_b =
  Tree.el "book"
    [
      Tree.leaf "title" "wodehouse";
      Tree.el "publisher"
        [ Tree.leaf "name" "psmith"; Tree.leaf "location" "london" ];
      Tree.el "info" [ Tree.leaf "isbn" "1234" ];
      Tree.leaf "price" "48.95";
    ]

let book_c =
  Tree.el "book"
    [
      Tree.el "reviews" [ Tree.leaf "title" "wodehouse" ];
      Tree.leaf "location" "london";
      Tree.leaf "isbn" "1234";
      Tree.leaf "price" "48.95";
    ]

let books_doc = Doc.of_forest ~root_tag:"bib" [ book_a; book_b; book_c ]
let books_index = Index.build books_doc

(* Node ids of the three book roots in [books_doc] (children of the
   synthetic root, in order). *)
let book_roots = Doc.children books_doc (Doc.root books_doc)

(* The paper's Figure 2 queries. *)
let q2a = "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']"
let q2b = "/book[.//title = 'wodehouse' and ./info/publisher/name = 'psmith']"
let q2c = "/book[.//title = 'wodehouse' and .//publisher/name = 'psmith']"
let q2d = "/book[.//title = 'wodehouse']"

(* The paper's Section 6.2.1 XMark queries. *)
let q1 = "//item[./description/parlist]"
let q2 = "//item[./description/parlist and ./mailbox/mail/text]"

let q3 =
  "//item[./mailbox/mail/text[./bold and ./keyword] and ./name and \
   ./incategory]"

let parse = Wp_pattern.Xpath_parser.parse

(* The dune build root ([_build/default]).  The test binary lives in
   its [test] directory, so the files the tests read (the CLI, the
   example queries, compiled units) resolve the same from any working
   directory. *)
let build_root =
  let exe =
    if Filename.is_relative Sys.executable_name then
      Filename.concat (Sys.getcwd ()) Sys.executable_name
    else Sys.executable_name
  in
  Filename.dirname (Filename.dirname exe)

(* A tag's postings, copied into an array. *)
let ids idx tag =
  let p = Index.postings idx tag in
  Array.init (Index.postings_length p) (Index.posting p)

(* A small XMark document shared by the heavier suites (built once). *)
let xmark_doc =
  lazy (Wp_xmark.Generator.generate_doc ~seed:11 ~target_bytes:120_000 ())

let xmark_index = lazy (Index.build (Lazy.force xmark_doc))

let sorted_scores (answers : Whirlpool.Topk_set.entry list) =
  List.sort (fun a b -> Float.compare b a) (List.map (fun e -> e.Whirlpool.Topk_set.score) answers)

let check_scores_equal ~msg expected actual =
  let pp_list l = String.concat ";" (List.map (Printf.sprintf "%.4f") l) in
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected [%s], got [%s])" msg (pp_list expected)
       (pp_list actual))
    true
    (List.length expected = List.length actual
    && List.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) expected actual)

(* Run the engine named by [algo] through the one backend dispatcher. *)
let run_algo algo plan ~k =
  Wp_twig.Backend.run
    ~config:Whirlpool.Engine.Config.(default |> with_algo algo)
    plan ~k

(* Ad-hoc XMark patterns that share component predicates and root
   tags, as an exploratory session's do. *)
let adhoc_queries =
  [
    "//item[./name]";
    "//item[./name and ./location]";
    "//item[./location and ./quantity]";
    "//item[./payment and ./shipping and ./name]";
    "//item[./mailbox/mail[./from and ./to]]";
    "//item[./mailbox/mail/text[./keyword] and ./name]";
    "//item[.//keyword = 'antique' and ./name]";
    "//mail[./from and ./text/keyword]";
    q1;
    q2;
    q3;
  ]

(* Run [f 0] .. [f (n - 1)] on [n] domains released together; results
   in domain order. *)
let on_domains n f =
  let ready = Atomic.make 0 in
  let go i =
    Atomic.incr ready;
    while Atomic.get ready < n do
      Domain.cpu_relax ()
    done;
    f i
  in
  let others = List.init (n - 1) (fun i -> Domain.spawn (fun () -> go (i + 1))) in
  let mine = go 0 in
  mine :: List.map Domain.join others

(* Two plans carry bit-identical score tables and equal root
   candidates. *)
let check_same_statistics ~msg (expected : Whirlpool.Plan.t)
    (actual : Whirlpool.Plan.t) =
  let bits t =
    Array.init (Wp_score.Score_table.size t) (fun node ->
        let e = Wp_score.Score_table.entry t node in
        (Int64.bits_of_float e.exact_weight, Int64.bits_of_float e.relaxed_weight))
  in
  Alcotest.(check (array (pair int64 int64)))
    (msg ^ ": score table") (bits expected.scores) (bits actual.scores);
  Alcotest.(check (array int)) (msg ^ ": roots") expected.roots actual.roots
