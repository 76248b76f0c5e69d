module Doc = Wp_xml.Doc
module Index = Wp_xml.Index
module Relation = Wp_relax.Relation
module Score_table = Wp_score.Score_table
module Pattern = Wp_pattern.Pattern

type exactness = Exact | Relaxed | Unbound

type binding = {
  query_node : Pattern.node_id;
  tag : string;
  node : Doc.node_id option;
  exactness : exactness;
  weight : float;
}

type t = {
  rank : int;
  root : Doc.node_id;
  score : float;
  bindings : binding list;
}

let binding_of (plan : Plan.t) ~root query_node = function
  | None ->
      {
        query_node;
        tag = Pattern.tag plan.pattern query_node;
        node = None;
        exactness = Unbound;
        weight = 0.0;
      }
  | Some node ->
      let doc = Index.doc plan.index in
      let entry = Score_table.entry plan.scores query_node in
      let spec = plan.specs.(query_node) in
      let anc =
        if query_node = Pattern.root plan.pattern then Doc.root doc else root
      in
      let content_exact =
        Wp_relax.Relaxation.content_level_at plan.config ~value:spec.value doc
          node
        = Wp_relax.Relaxation.Content_exact
      in
      let exact =
        content_exact && Relation.test doc spec.to_root.exact ~anc ~desc:node
      in
      {
        query_node;
        tag = Pattern.tag plan.pattern query_node;
        node = Some node;
        exactness = (if exact then Exact else Relaxed);
        weight = (if exact then entry.exact_weight else entry.relaxed_weight);
      }

let of_entry (plan : Plan.t) ~rank (entry : Topk_set.entry) =
  let bindings =
    List.mapi
      (fun q b -> binding_of plan ~root:entry.root q (if b < 0 then None else Some b))
      (Array.to_list entry.bindings)
  in
  { rank; root = entry.root; score = entry.score; bindings }

let of_result plan (result : Engine.result) =
  List.mapi (fun i e -> of_entry plan ~rank:(i + 1) e) result.answers

let fragment (plan : Plan.t) t = Doc.to_tree (Index.doc plan.index) t.root

let pp_exactness ppf = function
  | Exact -> Format.pp_print_string ppf "exact"
  | Relaxed -> Format.pp_print_string ppf "relaxed"
  | Unbound -> Format.pp_print_string ppf "deleted"

let exactness_to_string = function
  | Exact -> "exact"
  | Relaxed -> "relaxed"
  | Unbound -> "deleted"

let to_json (plan : Plan.t) t =
  let doc = Index.doc plan.index in
  let open Wp_json.Json in
  Obj
    [
      ("rank", Int t.rank);
      ("root", Int t.root);
      ("dewey", String (Wp_xml.Dewey.to_string (Doc.dewey doc t.root)));
      ("score", Float t.score);
      ( "bindings",
        List
          (List.map
             (fun b ->
               Obj
                 [
                   ("query_node", Int b.query_node);
                   ("tag", String b.tag);
                   ( "node",
                     match b.node with None -> Null | Some n -> Int n );
                   ("exactness", String (exactness_to_string b.exactness));
                   ("weight", Float b.weight);
                 ])
             t.bindings) );
    ]

let result_to_json (plan : Plan.t) (result : Engine.result) =
  let open Wp_json.Json in
  let stats = result.stats in
  Obj
    [
      ("partial", Bool result.partial);
      ( "answers",
        List (List.map (to_json plan) (of_result plan result)) );
      ( "stats",
        Obj
          [
            ("server_ops", Int stats.server_ops);
            ("comparisons", Int stats.comparisons);
            ("matches_created", Int stats.matches_created);
            ("matches_pruned", Int stats.matches_pruned);
            ("matches_died", Int stats.matches_died);
            ("routing_decisions", Int stats.routing_decisions);
            ("completed", Int stats.completed);
            ("wall_seconds", Float (Stats.wall_seconds stats));
          ] );
    ]

let pp (plan : Plan.t) ppf t =
  let doc = Index.doc plan.index in
  Format.fprintf ppf "@[<v 2>%d. %a  score %.4f" t.rank (Doc.pp_node doc)
    t.root t.score;
  List.iter
    (fun b ->
      match b.node with
      | None ->
          Format.fprintf ppf "@,%-12s -> (%a)" b.tag pp_exactness b.exactness
      | Some n ->
          Format.fprintf ppf "@,%-12s -> %a (%a, +%.4f)" b.tag
            (Doc.pp_node doc) n pp_exactness b.exactness b.weight)
    t.bindings;
  Format.fprintf ppf "@]"
