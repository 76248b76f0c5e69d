module Pattern = Wp_pattern.Pattern

type config = {
  edge_generalization : bool;
  leaf_deletion : bool;
  subtree_promotion : bool;
  value_relaxation : bool;
}

let all =
  {
    edge_generalization = true;
    leaf_deletion = true;
    subtree_promotion = true;
    value_relaxation = false;
  }

let with_content = { all with value_relaxation = true }

let exact =
  {
    edge_generalization = false;
    leaf_deletion = false;
    subtree_promotion = false;
    value_relaxation = false;
  }

type content_level = Content_exact | Content_relaxed | Content_reject

(* Is [query] one of the whitespace-delimited tokens of [actual]? *)
let contains_token actual query =
  List.exists (String.equal query)
    (String.split_on_char ' ' actual)

let content_level config ~query ~actual =
  match actual with
  | None -> Content_reject
  | Some actual ->
      if String.equal actual query then Content_exact
      else if config.value_relaxation && contains_token actual query then
        Content_relaxed
      else Content_reject

let content_level_at config ~value doc n =
  match value with
  | None -> Content_exact
  | Some query ->
      if Wp_xml.Doc.value_equals doc n query then Content_exact
      else if config.value_relaxation && Wp_xml.Doc.value_has_token doc n query
      then Content_relaxed
      else Content_reject

let pp_config ppf c =
  let flags =
    List.filter_map
      (fun (b, s) -> if b then Some s else None)
      [
        (c.edge_generalization, "edge-gen");
        (c.leaf_deletion, "leaf-del");
        (c.subtree_promotion, "promo");
        (c.value_relaxation, "content");
      ]
  in
  match flags with
  | [] -> Format.pp_print_string ppf "exact"
  | fs -> Format.pp_print_string ppf (String.concat "+" fs)

let relax_to_root config r =
  let r = if config.edge_generalization then Relation.generalize r else r in
  if config.subtree_promotion then Relation.promote r else r

let relax_internal config r =
  if config.edge_generalization then Relation.generalize r else r

(* --- The relaxation lattice. ---

   A lattice point is a root edge plus a spec whose nodes carry the id
   of the query node they came from: leaf deletion renumbers the
   survivors of a frozen pattern, so only this form keeps provenance.
   Each step is written once on it; the [Pattern.t] functions below
   lift their argument and freeze the results, and the two closures
   differ only in the node label they deduplicate by. *)

type lspec = {
  l_orig : int;
  l_tag : string;
  l_value : string option;
  l_children : (Pattern.edge * lspec) list;
}

let lspec_of_pattern pat =
  let rec go i =
    {
      l_orig = i;
      l_tag = Pattern.tag pat i;
      l_value = Pattern.value pat i;
      l_children =
        List.map (fun c -> (Pattern.edge pat c, go c)) (Pattern.children pat i);
    }
  in
  (Pattern.root_edge pat, go (Pattern.root pat))

(* Freeze a labeled pattern, returning the provenance array aligned with
   [Pattern.of_spec]'s preorder numbering. *)
let pattern_of_lspec (root_edge, s) =
  let rec conv s =
    let converted = List.map (fun (e, c) -> (e, conv c)) s.l_children in
    let spec =
      {
        Pattern.tag = s.l_tag;
        value = s.l_value;
        children = List.map (fun (e, (sp, _)) -> (e, sp)) converted;
      }
    in
    let origs =
      s.l_orig :: List.concat_map (fun (_, (_, os)) -> os) converted
    in
    (spec, origs)
  in
  let spec, origs = conv s in
  (Pattern.of_spec ~root_edge spec, Array.of_list origs)

(* All variants of [s] obtained by applying [at_child] to exactly one
   child slot somewhere in the tree.  [at_child] maps one (edge, child)
   slot to the list of replacement slot contents ([] meaning "drop the
   slot", one element per variant). *)
let rec slot_variants ~at_child s =
  let rec in_children before after =
    match after with
    | [] -> []
    | ((edge, child) as slot) :: rest ->
        let here =
          List.map
            (fun replacement ->
              { s with l_children = List.rev_append before (replacement @ rest) })
            (at_child slot)
        in
        let deeper =
          List.map
            (fun child' ->
              { s with l_children = List.rev_append before ((edge, child') :: rest) })
            (slot_variants ~at_child child)
        in
        here @ deeper @ in_children (slot :: before) rest
  in
  in_children [] s.l_children

let below_root ~at_child (root_edge, s) =
  List.map (fun s' -> (root_edge, s')) (slot_variants ~at_child s)

let generalize_edge ((root_edge, s) as lp) =
  (if root_edge = Pattern.Pc then [ (Pattern.Ad, s) ] else [])
  @ below_root lp ~at_child:(fun (edge, child) ->
        match edge with
        | Pattern.Pc -> [ [ (Pattern.Ad, child) ] ]
        | Pattern.Ad -> [])

let delete_leaf =
  below_root ~at_child:(fun (_edge, child) ->
      if child.l_children = [] then [ [] ] else [])

(* Promote a grand-child of some node to that node: remove it from the
   child and re-attach it under the node with an Ad edge. *)
let promote_subtree =
  below_root ~at_child:(fun (edge, child) ->
      List.mapi
        (fun i (_ge, gchild) ->
          let remaining = List.filteri (fun j _ -> j <> i) child.l_children in
          [ (edge, { child with l_children = remaining });
            (Pattern.Ad, gchild) ])
        child.l_children)

let lsteps config lp =
  (if config.edge_generalization then generalize_edge lp else [])
  @ (if config.leaf_deletion then delete_leaf lp else [])
  @ if config.subtree_promotion then promote_subtree lp else []

(* Children keys sorted recursively, so points equal up to sibling order
   collide. *)
let key label (root_edge, s) =
  let edge = function Pattern.Pc -> "/" | Pattern.Ad -> "~" in
  let rec go s =
    let child_keys =
      List.sort String.compare
        (List.map (fun (e, c) -> edge e ^ go c) s.l_children)
    in
    Printf.sprintf "%s(%s)" (label s) (String.concat "," child_keys)
  in
  edge root_edge ^ go s

(* Same shape: tag and value. *)
let shape s = match s.l_value with None -> s.l_tag | Some v -> s.l_tag ^ "=" ^ v

(* Same provenance: two same-shaped points whose nodes originate from
   different query nodes are distinct. *)
let provenance s = string_of_int s.l_orig

(* Breadth-first, so the recorded step count is minimal.  Returns the
   points with their depths in reverse discovery order. *)
let walk ~name ~label ~limit config pat =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let queue = Queue.create () in
  let push depth lp =
    let k = key label lp in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      if Hashtbl.length seen > limit then
        failwith ("Relaxation." ^ name ^ ": limit exceeded");
      out := (lp, depth) :: !out;
      Queue.push (lp, depth) queue
    end
  in
  push 0 (lspec_of_pattern pat);
  while not (Queue.is_empty queue) do
    let lp, depth = Queue.pop queue in
    List.iter (push (depth + 1)) (lsteps config lp)
  done;
  !out

let on_pattern step pat =
  List.map (fun lp -> fst (pattern_of_lspec lp)) (step (lspec_of_pattern pat))

let edge_generalizations = on_pattern generalize_edge
let leaf_deletions = on_pattern delete_leaf
let subtree_promotions = on_pattern promote_subtree
let steps config = on_pattern (lsteps config)
let canonical_key pat = key shape (lspec_of_pattern pat)

let closure_with_steps ?(limit = 10_000) config pat =
  List.rev_map
    (fun (lp, depth) -> (fst (pattern_of_lspec lp), depth))
    (walk ~name:"closure" ~label:shape ~limit config pat)

let closure ?limit config pat =
  List.map fst (closure_with_steps ?limit config pat)

(* Newest point first. *)
let closure_labeled ?(limit = 10_000) config pat =
  List.map
    (fun (lp, _) -> pattern_of_lspec lp)
    (walk ~name:"closure_labeled" ~label:provenance ~limit config pat)
