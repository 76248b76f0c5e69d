(* [quality]: the paper's deferred scoring validation — precision and
   nDCG of the engine ranking against relaxation-distance relevance. *)

let quality (scale : Common.scale) =
  Common.header
    "Scoring validation: precision / nDCG vs relaxation-distance relevance";
  (* Grading enumerates the relaxation closure and the exact matches of
     each relaxed query, so use a bounded document. *)
  let size = min scale.default_size 1_000_000 in
  let idx = Common.index_for size in
  let k = scale.default_k in
  let widths = [ 8; 16; 10; 10; 10 ] in
  Common.print_row widths [ "query"; "scoring"; "P@k"; "R@k"; "nDCG@k" ];
  List.iter
    (fun (qname, q) ->
      let pattern = Wp_pattern.Xpath_parser.parse q in
      let grades =
        Wp_score.Quality.relevance_grades idx Wp_relax.Relaxation.all pattern
      in
      List.iter
        (fun normalization ->
          let plan =
            Whirlpool.Plan.compile ~normalization idx Wp_relax.Relaxation.all
              pattern
          in
          let r = Whirlpool.Engine.run plan ~k in
          let ranking =
            List.map (fun (e : Whirlpool.Topk_set.entry) -> e.root) r.answers
          in
          Common.print_row widths
            [
              qname;
              Format.asprintf "%a" Wp_score.Score_table.pp_normalization
                normalization;
              Printf.sprintf "%.3f"
                (Wp_score.Quality.precision_at grades ~relevant_above:0.01
                   ~ranking ~k);
              Printf.sprintf "%.3f"
                (Wp_score.Quality.recall_at grades ~relevant_above:0.99
                   ~ranking ~k);
              Printf.sprintf "%.3f" (Wp_score.Quality.ndcg_at grades ~ranking ~k);
            ])
        [ Wp_score.Score_table.Raw; Wp_score.Score_table.Sparse;
          Wp_score.Score_table.Dense ])
    [ ("Q1", Common.q1); ("Q2", Common.q2) ];
  Printf.printf
    "\nThe paper defers this validation to future work; relevance here is\n\
     graded by relaxation distance (exact = 1, one step = 1/2, ...).\n\
     R@k counts how many grade-1 (exact) answers made the top-k.\n"
