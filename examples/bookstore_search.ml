(* Searching a structurally heterogeneous bookstore.

   The paper motivates top-k approximate matching with "querying books
   from different online sellers": each seller exports a different
   schema, so no single exact XPath finds everything.  This example
   builds a catalog merged from three sellers, runs one query against
   all of them, and shows how relaxations and scoring surface the best
   candidates — and how the engines agree on the result while doing very
   different amounts of work.

     dune exec examples/bookstore_search.exe
*)

open Wp_xml

let authors =
  [| "wodehouse"; "austen"; "dickens"; "tolstoy"; "woolf"; "joyce" |]

let cities = [| "london"; "paris"; "dublin"; "moscow" |]

(* Seller A nests publisher data under info, like Figure 1(a). *)
let seller_a rng i =
  let author = Wp_xmark.Rng.pick rng authors in
  Tree.el "book"
    [
      Tree.leaf "title" (Printf.sprintf "%s collected works %d" author i);
      Tree.leaf "author" author;
      Tree.el "info"
        [
          Tree.el "publisher"
            [
              Tree.leaf "name" "psmith";
              Tree.leaf "location" (Wp_xmark.Rng.pick rng cities);
            ];
          Tree.leaf "price" (Printf.sprintf "%d.95" (10 + Wp_xmark.Rng.int rng 60));
        ];
    ]

(* Seller B flattens everything to direct children. *)
let seller_b rng i =
  let author = Wp_xmark.Rng.pick rng authors in
  Tree.el "book"
    [
      Tree.leaf "title" (Printf.sprintf "%s anthology %d" author i);
      Tree.leaf "author" author;
      Tree.el "publisher" [ Tree.leaf "name" "psmith" ];
      Tree.leaf "location" (Wp_xmark.Rng.pick rng cities);
      Tree.leaf "price" (Printf.sprintf "%d.50" (5 + Wp_xmark.Rng.int rng 40));
    ]

(* Seller C wraps content in a listing envelope and omits publishers. *)
let seller_c rng i =
  let author = Wp_xmark.Rng.pick rng authors in
  Tree.el "book"
    [
      Tree.el "listing"
        [
          Tree.leaf "title" (Printf.sprintf "%s omnibus %d" author i);
          Tree.el "seller-info" [ Tree.leaf "price" "9.99" ];
        ];
      Tree.leaf "author" author;
    ]

let catalog seed n =
  let rng = Wp_xmark.Rng.create seed in
  let pick i =
    match i mod 3 with
    | 0 -> seller_a rng i
    | 1 -> seller_b rng i
    | _ -> seller_c rng i
  in
  Doc.of_forest ~root_tag:"catalog" (List.init n pick)

let () =
  let doc = catalog 2024 120 in
  let idx = Index.build doc in
  Printf.printf "Catalog: %d nodes from three sellers\n\n" (Doc.size doc);

  let query =
    Wp_pattern.Xpath_parser.parse
      "/book[./title and ./info/publisher/name = 'psmith' and \
       ./info/publisher/location = 'london']"
  in
  Printf.printf "Query: %s\n\n" (Wp_pattern.Pattern.to_string query);

  Printf.printf "Exact matches: %d of 120 books (seller A in london only)\n\n"
    (List.length (Wp_pattern.Matcher.matching_roots idx query));

  let show_answer (e : Whirlpool.Topk_set.entry) =
    let title =
      (* first title node under the answer root, if any *)
      match Index.descendants idx "title" ~root:e.root with
      | t :: _ -> Option.value (Doc.value doc t) ~default:"?"
      | [] -> "(no title)"
    in
    Printf.printf "  score %.3f  %s\n" e.score title
  in

  let plan = Whirlpool.Run.compile ~normalization:Wp_score.Score_table.Raw idx query in
  let top = Whirlpool.Engine.run plan ~k:8 in
  Printf.printf "Top-8 across all sellers (relaxed):\n";
  List.iter show_answer top.answers;

  (* The same answers, four engines, very different work: *)
  Printf.printf "\nWorkload comparison (same top-8):\n";
  List.iter
    (fun algo ->
      let r =
        Wp_twig.Backend.run
          ~config:Whirlpool.Engine.Config.(default |> with_algo algo)
          plan ~k:8
      in
      Printf.printf "  %-16s ops=%-6d created=%-6d pruned=%-6d\n"
        (Whirlpool.Engine.Config.algo_to_string algo)
        r.stats.server_ops r.stats.matches_created r.stats.matches_pruned)
    Whirlpool.Engine.Config.[ Whirlpool; Whirlpool_mt; Lockstep; Lockstep_noprun ];

  (* Restricting relaxations changes the answer set: without subtree
     promotion, seller B's flattened location cannot float to the book
     level. *)
  let no_promo =
    {
      Wp_relax.Relaxation.edge_generalization = true;
      leaf_deletion = true;
      subtree_promotion = false;
      value_relaxation = false;
    }
  in
  let restricted =
    Whirlpool.Run.top_k ~config:no_promo
      ~normalization:Wp_score.Score_table.Raw idx query ~k:8
  in
  Printf.printf "\nTop-8 without subtree promotion:\n";
  List.iter show_answer restricted.answers
