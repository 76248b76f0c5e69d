(* Approximate search, explained.

   Combines three capabilities beyond the basic top-k call: threshold
   queries (every answer above a score bar), FleXPath-style content
   relaxation (value predicates matched by token containment), and
   answer materialization (which node bound where, and how exactly).

     dune exec examples/approximate_search.exe
*)

open Wp_xml

let catalog_xml =
  {|<catalog>
      <book><title>wodehouse</title>
            <info><publisher><name>psmith</name></publisher></info></book>
      <book><title>the wodehouse omnibus</title>
            <publisher><name>psmith</name></publisher></book>
      <book><title>wodehouse stories</title></book>
      <book><title>collected dickens</title>
            <info><publisher><name>psmith</name></publisher></info></book>
      <book><reviews><title>wodehouse</title></reviews></book>
    </catalog>|}

let () =
  let doc = Parser.parse_doc catalog_xml in
  let idx = Index.build doc in
  let query =
    Wp_pattern.Xpath_parser.parse
      "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']"
  in
  Printf.printf "Query: %s\n\n" (Wp_pattern.Pattern.to_string query);

  (* Structural relaxations only: the approximate titles don't bind. *)
  let structural =
    Whirlpool.Run.compile ~normalization:Wp_score.Score_table.Raw idx query
  in
  (* Adding content relaxation: 'the wodehouse omnibus' and 'wodehouse
     stories' now satisfy the title predicate approximately. *)
  let with_content =
    Whirlpool.Run.compile ~config:Wp_relax.Relaxation.with_content
      ~normalization:Wp_score.Score_table.Raw idx query
  in
  let show name plan =
    let r = Whirlpool.Engine.run plan ~k:5 in
    Printf.printf "%s:\n" name;
    List.iter
      (fun a -> Format.printf "%a@." (Whirlpool.Answer.pp plan) a)
      (Whirlpool.Answer.of_result plan r);
    print_newline ();
    r
  in
  let _ = show "Structural relaxations only" structural in
  let r = show "With content relaxation" with_content in

  (* Threshold mode: keep everything above half of the best score. *)
  (match r.answers with
  | best :: _ ->
      let threshold = best.score /. 2.0 in
      let above = Whirlpool.Engine.run_above with_content ~threshold in
      Printf.printf
        "Threshold query (score > %.3f): %d of %d candidates qualify\n"
        threshold
        (List.length above.answers)
        (Array.length with_content.Whirlpool.Plan.roots)
  | [] -> ());

  (* The same answers as machine-readable JSON (what the CLI's --json
     emits). *)
  let r = Whirlpool.Engine.run with_content ~k:2 in
  Printf.printf "\nTop-2 as JSON:\n%s\n"
    (Wp_json.Json.to_string (Whirlpool.Answer.result_to_json with_content r))
