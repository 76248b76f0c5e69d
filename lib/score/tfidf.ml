module Doc = Wp_xml.Doc
module Index = Wp_xml.Index
module Relation = Wp_relax.Relation
module Pattern = Wp_pattern.Pattern

let value_ok doc (c : Component.t) target =
  match c.target_value with
  | None -> true
  | Some v ->
      Doc.value_equals doc target v
      || (c.value_tokens && Doc.value_has_token doc target v)

let source idx (c : Component.t) ~root =
  if c.from_doc_root then Doc.root (Index.doc idx) else root

let satisfies idx (c : Component.t) ~root ~target =
  let doc = Index.doc idx in
  (String.equal c.target_tag Index.wildcard
  || String.equal (Doc.tag doc target) c.target_tag)
  && value_ok doc c target
  && Relation.test doc c.relation ~anc:(source idx c ~root) ~desc:target

let tf idx (c : Component.t) ~root =
  let doc = Index.doc idx in
  let anc = source idx c ~root in
  let anc_depth = Doc.depth doc anc in
  Index.fold_descendants idx c.target_tag ~root:anc
    (fun acc n ->
      if
        Relation.test_depths c.relation ~anc_depth ~desc_depth:(Doc.depth doc n)
        && value_ok doc c n
      then acc + 1
      else acc)
    0

(* Does a target at position [i] or later of [targets], all of them
   past the source, satisfy the component below it?  The scan stops at
   the first satisfying target or at [stop], the end of the source's
   subtree. *)
let rec satisfied_from doc (c : Component.t) targets ~len ~anc_depth ~stop i =
  i < len
  &&
  let n = Index.posting targets i in
  n < stop
  && ((Relation.test_depths c.relation ~anc_depth ~desc_depth:(Doc.depth doc n)
      && value_ok doc c n)
     || satisfied_from doc c targets ~len ~anc_depth ~stop (i + 1))

(* [i] is the first target past [src]; most sources of a selective
   component have no target in their subtree at all, so that case is
   settled before reading the source's depth. *)
let satisfied doc c targets ~len src i =
  let stop = Doc.subtree_end doc src in
  i < len
  && Index.posting targets i < stop
  && satisfied_from doc c targets ~len ~anc_depth:(Doc.depth doc src) ~stop i

(* One forward merge of the (preorder-sorted) source and target
   postings: the target cursor only advances (galloping past the targets
   outside every source's subtree), and each source scans its
   own subtree interval from it until the first satisfying target,
   setting the source's bit when it finds one. *)
let compute_sweep idx (c : Component.t) =
  let doc = Index.doc idx in
  let targets = Index.postings idx c.target_tag in
  let len = Index.postings_length targets in
  if c.from_doc_root then begin
    let root = Doc.root doc in
    let bits = Component_table.sweep_create 1 in
    let first = Index.lower_bound targets (root + 1) in
    let ok = satisfied doc c targets ~len root first in
    if ok then Component_table.sweep_set bits 0;
    { Component_table.count = Bool.to_int ok; bits }
  end
  else begin
    let sources = Index.postings idx c.root_tag in
    let n = Index.postings_length sources in
    let bits = Component_table.sweep_create n in
    let count = ref 0 and cursor = ref 0 in
    for s = 0 to n - 1 do
      let src = Index.posting sources s in
      cursor := Index.lower_bound_from targets ~from:!cursor (src + 1);
      if satisfied doc c targets ~len src !cursor then begin
        incr count;
        Component_table.sweep_set bits s
      end
    done;
    { Component_table.count = !count; bits }
  end

let sweep ?(memo = Component_table.create ()) idx c =
  Component_table.sweep memo c ~compute:(fun () -> compute_sweep idx c)

let idf ?memo idx (c : Component.t) =
  let total = if c.from_doc_root then 1 else Index.count idx c.root_tag in
  if total = 0 then 0.0
  else
    let satisfying = (sweep ?memo idx c).count in
    if satisfying = 0 then log (float_of_int (total + 1))
    else log (float_of_int total /. float_of_int satisfying)

let score idx components ~root =
  Array.fold_left
    (fun acc c -> acc +. (idf idx c *. float_of_int (tf idx c ~root)))
    0.0 components

let rank idx pat ~k =
  let components = Component.of_pattern pat in
  let candidates = Wp_pattern.Matcher.root_candidates idx pat in
  let scored =
    List.map (fun n -> (n, score idx components ~root:n)) candidates
  in
  let by_score (n1, s1) (n2, s2) =
    match Float.compare s2 s1 with 0 -> Int.compare n1 n2 | c -> c
  in
  let sorted = List.sort by_score scored in
  List.filteri (fun i _ -> i < k) sorted
