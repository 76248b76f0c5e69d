(** High-level façade over the engines.

    A typical interaction:

    {[
      let doc = Wp_xml.Parser.parse_doc xml in
      let idx = Wp_xml.Index.build doc in
      let query = Wp_pattern.Xpath_parser.parse "//item[./description/parlist]" in
      let result = Whirlpool.Run.top_k ~k:10 idx query in
      List.iter
        (fun (a : Whirlpool.Topk_set.entry) ->
          Printf.printf "root node %d, score %.3f\n" a.root a.score)
        result.answers
    ]} *)

val compile :
  ?config:Wp_relax.Relaxation.config ->
  ?normalization:Wp_score.Score_table.normalization ->
  Wp_xml.Index.t ->
  Wp_pattern.Pattern.t ->
  Plan.t
(** Compile a query against an indexed document.  [config] defaults to
    all relaxations enabled, [normalization] to [Sparse]. *)

val top_k :
  ?config:Wp_relax.Relaxation.config ->
  ?normalization:Wp_score.Score_table.normalization ->
  ?routing:Strategy.routing ->
  Wp_xml.Index.t ->
  Wp_pattern.Pattern.t ->
  k:int ->
  Engine.result
(** One-call convenience: compile then run Whirlpool-S through
    {!Engine.run} ([routing] defaults to [Min_alive]).  Other engines
    are picked by {!Engine.Config.with_algo} and run through
    [Wp_twig.Backend.run]. *)

val top_k_answers :
  ?config:Wp_relax.Relaxation.config ->
  ?normalization:Wp_score.Score_table.normalization ->
  ?routing:Strategy.routing ->
  Wp_xml.Index.t ->
  Wp_pattern.Pattern.t ->
  k:int ->
  Answer.t list
(** Like {!top_k}, with the answers materialized (fragments, bindings,
    exactness). *)
