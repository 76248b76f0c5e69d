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

(* --- Rewriting-based single steps, on the inductive spec form. --- *)

(* All variants of [spec] obtained by applying [at_child] to exactly one
   child slot somewhere in the tree.  [at_child] maps one (edge, child)
   slot to the list of replacement slot contents ([] meaning "drop the
   slot", one element per variant). *)
let rec slot_variants ~at_child (spec : Pattern.spec) : Pattern.spec list =
  let rec in_children before after =
    match after with
    | [] -> []
    | ((edge, child) as slot) :: rest ->
        let here =
          List.map
            (fun replacement ->
              { spec with Pattern.children = List.rev_append before (replacement @ rest) })
            (at_child spec slot)
        in
        let deeper =
          List.map
            (fun child' ->
              { spec with Pattern.children = List.rev_append before ((edge, child') :: rest) })
            (slot_variants ~at_child child)
        in
        here @ deeper @ in_children (slot :: before) rest
  in
  in_children [] spec.Pattern.children

let edge_generalizations pat =
  let spec = Pattern.to_spec pat in
  let root_variant =
    if Pattern.root_edge pat = Pattern.Pc then
      [ Pattern.of_spec ~root_edge:Ad spec ]
    else []
  in
  let inner =
    slot_variants spec ~at_child:(fun _parent (edge, child) ->
        match edge with
        | Pattern.Pc -> [ [ (Pattern.Ad, child) ] ]
        | Pattern.Ad -> [])
  in
  root_variant
  @ List.map (Pattern.of_spec ~root_edge:(Pattern.root_edge pat)) inner

let leaf_deletions pat =
  let spec = Pattern.to_spec pat in
  let inner =
    slot_variants spec ~at_child:(fun _parent (_edge, child) ->
        if child.Pattern.children = [] then [ [] ] else [])
  in
  List.map (Pattern.of_spec ~root_edge:(Pattern.root_edge pat)) inner

let subtree_promotions pat =
  let spec = Pattern.to_spec pat in
  (* Promote a grand-child of some node to that node: remove it from the
     child and re-attach it under the node with an Ad edge. *)
  let inner =
    slot_variants spec ~at_child:(fun _parent (edge, child) ->
        List.mapi
          (fun i (_ge, gchild) ->
            let remaining = List.filteri (fun j _ -> j <> i) child.Pattern.children in
            [ (edge, { child with Pattern.children = remaining });
              (Pattern.Ad, gchild) ])
          child.Pattern.children)
  in
  List.map (Pattern.of_spec ~root_edge:(Pattern.root_edge pat)) inner

let steps config pat =
  (if config.edge_generalization then edge_generalizations pat else [])
  @ (if config.leaf_deletion then leaf_deletions pat else [])
  @ if config.subtree_promotion then subtree_promotions pat else []

(* Canonical key: children sorted recursively, so patterns equal up to
   sibling order collide. *)
let canonical_key pat =
  let rec key (s : Pattern.spec) =
    let child_keys =
      List.sort String.compare
        (List.map
           (fun (e, c) ->
             (match e with Pattern.Pc -> "/" | Pattern.Ad -> "~") ^ key c)
           s.Pattern.children)
    in
    Printf.sprintf "%s%s(%s)" s.Pattern.tag
      (match s.Pattern.value with None -> "" | Some v -> "=" ^ v)
      (String.concat "," child_keys)
  in
  (match Pattern.root_edge pat with Pattern.Pc -> "/" | Pattern.Ad -> "~")
  ^ key (Pattern.to_spec pat)

(* Breadth-first closure, so the recorded step count is minimal. *)
let closure_with_steps ?(limit = 10_000) config pat =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let queue = Queue.create () in
  let push depth p =
    let k = canonical_key p in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      if Hashtbl.length seen > limit then
        failwith "Relaxation.closure: limit exceeded";
      out := (p, depth) :: !out;
      Queue.push (p, depth) queue
    end
  in
  push 0 pat;
  while not (Queue.is_empty queue) do
    let p, depth = Queue.pop queue in
    List.iter (push (depth + 1)) (steps config p)
  done;
  List.rev !out

let closure ?limit config pat =
  List.map fst (closure_with_steps ?limit config pat)

(* --- Labeled lattice enumeration. ---

   The static analyzer cross-checks server predicate sequences against
   the relaxation lattice, which requires knowing, for every node of a
   relaxed pattern, which node of the {e original} pattern it came from
   (leaf deletion renumbers the survivors).  The plain closure above
   loses that provenance, so the steps are re-run here on a spec form
   carrying original node ids. *)

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
  go (Pattern.root pat)

(* [slot_variants] for the labeled form. *)
let rec l_slot_variants ~at_child (s : lspec) : lspec list =
  let rec in_children before after =
    match after with
    | [] -> []
    | ((edge, child) as slot) :: rest ->
        let here =
          List.map
            (fun replacement ->
              { s with l_children = List.rev_append before (replacement @ rest) })
            (at_child s slot)
        in
        let deeper =
          List.map
            (fun child' ->
              { s with l_children = List.rev_append before ((edge, child') :: rest) })
            (l_slot_variants ~at_child child)
        in
        here @ deeper @ in_children (slot :: before) rest
  in
  in_children [] s.l_children

(* A labeled pattern is a root edge plus a labeled tree. *)
let l_edge_generalizations (root_edge, s) =
  let root_variant =
    if root_edge = Pattern.Pc then [ (Pattern.Ad, s) ] else []
  in
  let inner =
    l_slot_variants s ~at_child:(fun _parent (edge, child) ->
        match edge with
        | Pattern.Pc -> [ [ (Pattern.Ad, child) ] ]
        | Pattern.Ad -> [])
  in
  root_variant @ List.map (fun s' -> (root_edge, s')) inner

let l_leaf_deletions (root_edge, s) =
  List.map
    (fun s' -> (root_edge, s'))
    (l_slot_variants s ~at_child:(fun _parent (_edge, child) ->
         if child.l_children = [] then [ [] ] else []))

let l_subtree_promotions (root_edge, s) =
  List.map
    (fun s' -> (root_edge, s'))
    (l_slot_variants s ~at_child:(fun _parent (edge, child) ->
         List.mapi
           (fun i (_ge, gchild) ->
             let remaining =
               List.filteri (fun j _ -> j <> i) child.l_children
             in
             [ (edge, { child with l_children = remaining });
               (Pattern.Ad, gchild) ])
           child.l_children))

let l_steps config lp =
  (if config.edge_generalization then l_edge_generalizations lp else [])
  @ (if config.leaf_deletion then l_leaf_deletions lp else [])
  @ if config.subtree_promotion then l_subtree_promotions lp else []

(* Dedup key including provenance: two same-shaped patterns whose nodes
   originate from different query nodes are distinct lattice points. *)
let l_key (root_edge, s) =
  let rec key s =
    let child_keys =
      List.sort String.compare
        (List.map
           (fun (e, c) ->
             (match e with Pattern.Pc -> "/" | Pattern.Ad -> "~") ^ key c)
           s.l_children)
    in
    Printf.sprintf "%d(%s)" s.l_orig (String.concat "," child_keys)
  in
  (match root_edge with Pattern.Pc -> "/" | Pattern.Ad -> "~") ^ key s

(* Freeze a labeled pattern, returning the provenance array aligned with
   [Pattern.of_spec]'s preorder numbering. *)
let pattern_of_lspec root_edge s =
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

let closure_labeled ?(limit = 10_000) config pat =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let queue = Queue.create () in
  let push lp =
    let k = l_key lp in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      if Hashtbl.length seen > limit then
        failwith "Relaxation.closure_labeled: limit exceeded";
      out := lp :: !out;
      Queue.push lp queue
    end
  in
  push (Pattern.root_edge pat, lspec_of_pattern pat);
  while not (Queue.is_empty queue) do
    let lp = Queue.pop queue in
    List.iter push (l_steps config lp)
  done;
  List.rev_map (fun (re, s) -> pattern_of_lspec re s) !out |> List.rev
