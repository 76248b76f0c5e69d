module Dataguide = Wp_stats.Dataguide
module Relation = Wp_relax.Relation
module Relaxation = Wp_relax.Relaxation
module Pattern = Wp_pattern.Pattern

(* idf ≤ log(count(q0)) whenever some pair satisfies the predicate; when
   no pair can, tf is 0 for every source and the contribution is 0.
   (The satisfying = 0 convention yields the larger log(count+1), but
   only in tandem with an everywhere-zero tf.)  tf for one source is at
   most the document-wide pair count, and at most the target tag's
   population. *)
let component_bound guide ~anc_tag ~target_tag relation =
  let sources = Dataguide.tag_count guide anc_tag in
  if sources = 0 then 0.0
  else
    let pairs =
      Dataguide.pairs_in_relation guide ~anc:anc_tag ~desc:target_tag relation
    in
    if pairs = 0 then 0.0
    else
      let tf_bound = min pairs (Dataguide.tag_count guide target_tag) in
      log (float_of_int sources) *. float_of_int tf_bound

let of_pattern ?config guide pat =
  let root = Pattern.root pat in
  let root_tag = Pattern.tag pat root in
  List.fold_left
    (fun acc node ->
      if node = root then acc (* unique document root: idf is 0 *)
      else
        let exact =
          match Pattern.path_edges pat root node with
          | Some (_ :: _ as edges) -> Relation.of_edges edges
          | Some [] | None -> assert false
        in
        let relation =
          match config with
          | Some c -> Relaxation.relax_to_root c exact
          | None -> exact
        in
        acc
        +. component_bound guide ~anc_tag:root_tag
             ~target_tag:(Pattern.tag pat node) relation)
    0.0 (Pattern.node_ids pat)
