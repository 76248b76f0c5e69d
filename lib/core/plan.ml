module Pattern = Wp_pattern.Pattern
module Relaxation = Wp_relax.Relaxation
module Relation = Wp_relax.Relation
module Server_spec = Wp_relax.Server_spec
module Score_table = Wp_score.Score_table
module Component_table = Wp_score.Component_table
module Index = Wp_xml.Index
module Doc = Wp_xml.Doc

type t = {
  pattern : Pattern.t;
  config : Relaxation.config;
  specs : Server_spec.t array;
  scores : Score_table.t;
  index : Index.t;
  roots : Doc.node_id array;
  n_servers : int;
  full_mask : int;
  est_fanout : float array;
  est_p_exact : float array;
  est_p_empty : float array;
}

(* Content acceptance and exactness under the configuration. *)
let content_level config doc value n =
  match value with
  | None -> Relaxation.Content_exact
  | Some query -> Relaxation.content_level config ~query ~actual:(Doc.value doc n)

let value_ok config doc value n =
  content_level config doc value n <> Relaxation.Content_reject

(* Candidates for the pattern root: nodes with the right tag/value whose
   relation to the document root satisfies the (possibly relaxed) root
   edge, in document order.  Content acceptance reads only the
   configuration's [value_relaxation], so that completes the key. *)
let root_candidates memo config idx (specs : Server_spec.t array) =
  let doc = Index.doc idx in
  let spec = specs.(0) in
  let rel = Server_spec.candidate_relation spec in
  let key =
    {
      Component_table.tag = spec.tag;
      value = spec.value;
      relation = rel;
      value_relaxation = config.Relaxation.value_relaxation;
    }
  in
  Component_table.roots memo key ~compute:(fun () ->
      let doc_root_depth = Doc.depth doc (Doc.root doc) in
      Array.to_list (Index.ids idx spec.tag)
      |> List.filter (fun n ->
             n <> Doc.root doc
             && Relation.test_depths rel ~anc_depth:doc_root_depth
                  ~desc_depth:(Doc.depth doc n)
             && value_ok config doc spec.value n)
      |> Array.of_list)

(* Root candidates inspected for the routing estimates. *)
let sample = 100

(* Estimate fan-out, exactness and emptiness of each server over the
   first [sample] root candidates. *)
let estimate config idx (specs : Server_spec.t array) roots =
  let doc = Index.doc idx in
  let n = Array.length specs in
  let est_fanout = Array.make n 1.0 in
  let est_p_exact = Array.make n 1.0 in
  let est_p_empty = Array.make n 0.0 in
  let n_sampled = min sample (Array.length roots) in
  let sampled = Array.sub roots 0 n_sampled in
  if n_sampled > 0 then
    for s = 1 to n - 1 do
      let spec = specs.(s) in
      let rel = Server_spec.candidate_relation spec in
      let total = ref 0 and exact = ref 0 and empty = ref 0 in
      Array.iter
        (fun root ->
          let root_depth = Doc.depth doc root in
          let here = ref 0 in
          Index.iter_descendants idx spec.tag ~root (fun c ->
              if
                Relation.test_depths rel ~anc_depth:root_depth
                  ~desc_depth:(Doc.depth doc c)
                && value_ok config doc spec.value c
              then begin
                incr here;
                if
                  Relation.test_depths spec.to_root.exact ~anc_depth:root_depth
                    ~desc_depth:(Doc.depth doc c)
                  && content_level config doc spec.value c
                     = Relaxation.Content_exact
                then incr exact
              end);
          total := !total + !here;
          if !here = 0 then incr empty)
        sampled;
      est_fanout.(s) <- float_of_int !total /. float_of_int n_sampled;
      est_p_exact.(s) <-
        (if !total = 0 then 1.0 else float_of_int !exact /. float_of_int !total);
      est_p_empty.(s) <- float_of_int !empty /. float_of_int n_sampled
    done;
  (est_fanout, est_p_exact, est_p_empty)

let compile ?(normalization = Wp_score.Score_table.Sparse)
    ?(memo = Component_table.create ()) idx config pat =
  let n_servers = Pattern.size pat in
  if n_servers > Sys.int_size - 2 then
    invalid_arg "Plan.compile: pattern too large for bitmask bookkeeping";
  let specs = Server_spec.build config pat in
  let scores = Score_table.build ~memo idx pat config normalization in
  let roots = root_candidates memo config idx specs in
  let est_fanout, est_p_exact, est_p_empty = estimate config idx specs roots in
  {
    pattern = pat;
    config;
    specs;
    scores;
    index = idx;
    roots;
    n_servers;
    full_mask = (1 lsl n_servers) - 1;
    est_fanout;
    est_p_exact;
    est_p_empty;
  }

let admits_partial_answers t =
  t.config.leaf_deletion || t.config.subtree_promotion

let max_weight t s = (Score_table.entry t.scores s).exact_weight

let pp ppf t =
  Format.fprintf ppf "@[<v>plan: %s (%a)@," (Pattern.to_string t.pattern)
    Relaxation.pp_config t.config;
  Array.iteri
    (fun s spec ->
      Format.fprintf ppf "%a@,  fanout=%.2f p_exact=%.2f p_empty=%.2f w=%.3f/%.3f@,"
        Server_spec.pp spec t.est_fanout.(s) t.est_p_exact.(s) t.est_p_empty.(s)
        (Score_table.entry t.scores s).exact_weight
        (Score_table.entry t.scores s).relaxed_weight)
    t.specs;
  Format.fprintf ppf "@]"
