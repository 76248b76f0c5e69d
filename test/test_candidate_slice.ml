(* [Server.process] walks the index slice below a match's root binding
   once, applying the content test, the candidate relation and the hard
   conditionals together.  Checked here against the two-step reference
   spelled out with public predicates: list the root's descendants with
   the server's tag, keep those passing the content test and the
   candidate relation, then those whose hard conditionals hold against
   the match's bindings.  Across random documents, relaxation
   configurations and routing orders the bound extensions must be
   exactly the reference's candidates, in document order, each scored
   at its exactness level, and every slice entry must count as one
   comparison. *)

open Whirlpool
module Doc = Wp_xml.Doc
module Index = Wp_xml.Index
module Relation = Wp_relax.Relation
module Relaxation = Wp_relax.Relaxation
module Server_spec = Wp_relax.Server_spec
module Pattern = Wp_pattern.Pattern

let gen_config =
  QCheck2.Gen.(
    map3
      (fun eg ld sp ->
        {
          Relaxation.edge_generalization = eg;
          leaf_deletion = ld;
          subtree_promotion = sp;
          value_relaxation = false;
        })
      bool bool bool)

let gen_inputs =
  QCheck2.Gen.triple
    (QCheck2.Gen.map Doc.of_tree Test_doc.gen_tree)
    Test_matcher.small_pattern_gen gen_config

let holds doc (c : Server_spec.conditional) ~anc ~desc =
  Relation.test doc c.exact ~anc ~desc
  ||
  match c.relaxed with
  | Some r -> Relation.test doc r ~anc ~desc
  | None -> false

(* Without subtree promotion nothing binds below a visited, unbound
   pattern ancestor. *)
let blocked (plan : Plan.t) (pm : Partial_match.t) ~server =
  (not plan.config.subtree_promotion)
  && List.exists
       (fun a ->
         a <> Pattern.root plan.pattern
         && Partial_match.visited pm a
         && Partial_match.bound pm a = None)
       (Pattern.ancestors plan.pattern server)

(* The two-step reference: (candidate, weight) in document order, and
   the number of slice entries examined. *)
let reference (plan : Plan.t) (pm : Partial_match.t) ~server =
  if blocked plan pm ~server then ([], 0)
  else begin
    let spec = plan.specs.(server) in
    let doc = Index.doc plan.index in
    let root = Partial_match.root_binding pm in
    let score = Wp_score.Score_table.entry plan.scores server in
    let slice = Index.descendants plan.index spec.tag ~root in
    let content n =
      match spec.value with
      | None -> Relaxation.Content_exact
      | Some query ->
          Relaxation.content_level plan.config ~query ~actual:(Doc.value doc n)
    in
    let structural =
      List.filter
        (fun n ->
          content n <> Relaxation.Content_reject
          && Relation.test doc (Server_spec.candidate_relation spec) ~anc:root
               ~desc:n)
        slice
    in
    let conditioned =
      List.filter
        (fun n ->
          List.for_all
            (fun (c : Server_spec.conditional) ->
              (not c.hard)
              ||
              match Partial_match.bound pm c.other with
              | None -> true
              | Some o ->
                  if c.downward then holds doc c ~anc:n ~desc:o
                  else holds doc c ~anc:o ~desc:n)
            spec.conditionals)
        structural
    in
    ( List.map
        (fun n ->
          let exact =
            content n = Relaxation.Content_exact
            && Relation.test doc spec.to_root.exact ~anc:root ~desc:n
          in
          (n, if exact then score.exact_weight else score.relaxed_weight))
        conditioned,
      List.length slice )
  end

(* Walk every server of every match through [Server.process] in the
   order [pick] gives, comparing each visit with the reference. *)
let agrees (plan : Plan.t) ~pick =
  let stats = Stats.create () in
  let ctr = ref 0 in
  let next_id () =
    incr ctr;
    !ctr
  in
  let rec go (pm : Partial_match.t) =
    match Partial_match.unvisited_servers pm ~n_servers:plan.n_servers with
    | [] -> true
    | servers ->
        let server = pick pm servers in
        let expected, examined = reference plan pm ~server in
        (* [extend_last] may hand [pm]'s bindings to an extension. *)
        let score = pm.score in
        let c0 = stats.comparisons in
        let o = Server.process plan stats ~next_id pm ~server in
        let bound =
          List.filter_map
            (fun (e : Partial_match.t) ->
              Option.map
                (fun n -> (n, e.score -. score))
                (Partial_match.bound e server))
            o.extensions
        in
        List.length bound = List.length expected
        && List.for_all2
             (fun (n, w) (n', w') -> n = n' && Float.abs (w -. w') < 1e-12)
             bound expected
        && stats.comparisons - c0 = examined
        && List.for_all go o.extensions
  in
  List.for_all go (Seeds.drain (Seeds.create plan stats) ~next_id)

let picks =
  [
    (fun _ servers -> List.hd servers);
    (fun _ servers -> List.nth servers (List.length servers - 1));
    (fun (pm : Partial_match.t) servers ->
      List.nth servers (pm.id mod List.length servers));
  ]

let prop_process_equals_reference =
  QCheck2.Test.make ~name:"Server.process = two-step reference" ~count:120
    gen_inputs (fun (doc, pat, config) ->
      let plan = Run.compile ~config (Index.build doc) pat in
      List.for_all (fun pick -> agrees plan ~pick) picks)

let suite = [ QCheck_alcotest.to_alcotest prop_process_equals_reference ]
