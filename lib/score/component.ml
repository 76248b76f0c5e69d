module Pattern = Wp_pattern.Pattern
module Relation = Wp_relax.Relation
module Relaxation = Wp_relax.Relaxation

type t = {
  node : Pattern.node_id;
  root_tag : string;
  target_tag : string;
  target_value : string option;
  value_tokens : bool;
  relation : Relation.t;
  from_doc_root : bool;
}

let of_pattern ?(doc_root_tag = "doc-root") pat =
  let root = Pattern.root pat in
  Array.init (Pattern.size pat) (fun node ->
      if node = root then
        {
          node;
          root_tag = doc_root_tag;
          target_tag = Pattern.tag pat root;
          target_value = Pattern.value pat root;
          value_tokens = false;
          relation = Relation.of_edge (Pattern.root_edge pat);
          from_doc_root = true;
        }
      else
        let edges =
          match Pattern.path_edges pat root node with
          | Some (_ :: _ as es) -> es
          | Some [] | None -> assert false (* root is an ancestor of all *)
        in
        {
          node;
          root_tag = Pattern.tag pat root;
          target_tag = Pattern.tag pat node;
          target_value = Pattern.value pat node;
          value_tokens = false;
          relation = Relation.of_edges edges;
          from_doc_root = false;
        })

let relaxed config c =
  let value_tokens = config.Relaxation.value_relaxation in
  if c.from_doc_root then
    { c with relation = Relaxation.relax_internal config c.relation; value_tokens }
  else { c with relation = Relaxation.relax_to_root config c.relation; value_tokens }

let relaxed_differs config c =
  let r = relaxed config c in
  (not (Relation.equal r.relation c.relation))
  || (r.value_tokens && c.target_value <> None)

let pp ppf c =
  Format.fprintf ppf "%s[%a::%s%s]" c.root_tag Relation.pp c.relation
    c.target_tag
    (match c.target_value with None -> "" | Some v -> "='" ^ v ^ "'")
