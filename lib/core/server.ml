module Doc = Wp_xml.Doc
module Index = Wp_xml.Index
module Relation = Wp_relax.Relation
module Server_spec = Wp_relax.Server_spec
module Score_table = Wp_score.Score_table
module Pattern = Wp_pattern.Pattern

module Relaxation = Wp_relax.Relaxation

type outcome = { extensions : Partial_match.t list; died : bool }

let content_level config doc value n =
  match value with
  | None -> Relaxation.Content_exact
  | Some query ->
      Relaxation.content_level config ~query ~actual:(Doc.value doc n)

let initial_matches (plan : Plan.t) (stats : Stats.t) ~next_id =
  let entry = Score_table.entry plan.scores 0 in
  let spec = plan.specs.(0) in
  let doc = Index.doc plan.index in
  let max_rest =
    List.fold_left
      (fun acc s -> acc +. Plan.max_weight plan s)
      0.0
      (List.init (plan.n_servers - 1) (fun i -> i + 1))
  in
  stats.server_ops <- stats.server_ops + 1;
  let doc_root_depth = Doc.depth doc (Doc.root doc) in
  let matches =
    Array.map
      (fun root ->
        stats.comparisons <- stats.comparisons + 1;
        let exact =
          Relation.test_depths spec.to_root.exact ~anc_depth:doc_root_depth
            ~desc_depth:(Doc.depth doc root)
          && content_level plan.config doc spec.value root
             = Relaxation.Content_exact
        in
        let weight =
          if exact then entry.exact_weight else entry.relaxed_weight
        in
        Partial_match.create_root ~plan_servers:plan.n_servers
          ~id:(next_id ()) ~root ~weight ~max_rest)
      plan.roots
  in
  stats.matches_created <- stats.matches_created + Array.length matches;
  Array.to_list matches

(* A conditional predicate holds when its exact relation holds, or its
   relaxed relation (if any) does. *)
let conditional_holds doc (c : Server_spec.conditional) ~anc ~desc =
  Relation.test doc c.exact ~anc ~desc
  ||
  match c.relaxed with
  | Some r -> Relation.test doc r ~anc ~desc
  | None -> false

(* Check the conditional predicate sequence of [spec] for candidate [n]
   against the nodes bound by [pm]; returns false when a hard conditional
   fails. *)
let hard_conditionals_ok doc (spec : Server_spec.t) (pm : Partial_match.t) n =
  List.for_all
    (fun (c : Server_spec.conditional) ->
      (not c.hard)
      ||
      match Partial_match.bound pm c.other with
      | None -> true
      | Some other ->
          if c.downward then conditional_holds doc c ~anc:n ~desc:other
          else conditional_holds doc c ~anc:other ~desc:n)
    spec.conditionals

(* With promotion disabled, an unbound node may not have bound pattern
   descendants (a subtree cannot outlive its deleted root). *)
let deletion_ok (plan : Plan.t) (pm : Partial_match.t) ~server =
  plan.config.subtree_promotion
  || List.for_all
       (fun d -> Partial_match.bound pm d = None)
       (Pattern.descendants plan.pattern server)

(* ... and symmetrically, a node cannot bind below an already-deleted
   pattern ancestor. *)
let under_deleted_ancestor (plan : Plan.t) (pm : Partial_match.t) ~server =
  (not plan.config.subtree_promotion)
  && List.exists
       (fun a ->
         a <> Pattern.root plan.pattern
         && Partial_match.visited pm a
         && Partial_match.bound pm a = None)
       (Pattern.ancestors plan.pattern server)

(* Without promotion, bindings are not independent: a binding accepted
   now can invalidate a sibling's or descendant's options later, so the
   deletion branch must be explored as a genuine alternative whenever
   the node participates in hard conditionals.  With promotion enabled
   the branch is dominated (a binding can never hurt) and is skipped. *)
let needs_deletion_branch (plan : Plan.t) (spec : Server_spec.t) =
  spec.optional
  && (not plan.config.subtree_promotion)
  && spec.conditionals <> []

let process (plan : Plan.t) (stats : Stats.t) ~next_id (pm : Partial_match.t)
    ~server =
  if server = 0 then invalid_arg "Server.process: the root server runs first";
  if Partial_match.visited pm server then
    invalid_arg "Server.process: server already visited";
  let spec = plan.specs.(server) in
  let doc = Index.doc plan.index in
  let score = Score_table.entry plan.scores server in
  let server_max = score.exact_weight in
  stats.server_ops <- stats.server_ops + 1;
  (* One pass over the index slice below the match's root binding:
     the content test, the candidate relation and the hard conditionals
     together, charging every examined candidate to [comparisons].
     Survivors are kept as [node * 2 + exact]; walking the slice
     backwards leaves them in document order. *)
  let survivors =
    if under_deleted_ancestor plan pm ~server then []
    else begin
      let root = Partial_match.root_binding pm in
      let root_depth = Doc.depth doc root in
      let rel = Server_spec.candidate_relation spec in
      let postings = Index.postings plan.index spec.tag in
      let lo, hi = Index.subtree_slice plan.index spec.tag ~root in
      stats.comparisons <- stats.comparisons + (hi - lo);
      let acc = ref [] in
      for i = hi - 1 downto lo do
        let node = Index.posting postings i in
        let content = content_level plan.config doc spec.value node in
        let depth = Doc.depth doc node in
        if
          content <> Relaxation.Content_reject
          && Relation.test_depths rel ~anc_depth:root_depth ~desc_depth:depth
          && hard_conditionals_ok doc spec pm node
        then begin
          let exact =
            content = Relaxation.Content_exact
            && Relation.test_depths spec.to_root.exact ~anc_depth:root_depth
                 ~desc_depth:depth
          in
          acc := ((node * 2) + Bool.to_int exact) :: !acc
        end
      done;
      !acc
    end
  in
  (* Extensions copy the parent's bindings array: one allocation per
     partial match created is the engine's unit of work, not an
     accident — [extend_last] transfers instead of copying where the
     parent is consumed. *)
  let extension ~last ~binding ~weight =
    ((if last then Partial_match.extend_last else Partial_match.extend)
       pm ~id:(next_id ()) ~server ~binding ~weight ~server_max
    [@wp.allow "hot-alloc extensions allocate one bindings array each"])
  in
  let bound_extension ~last s =
    let weight =
      if s land 1 = 1 then score.exact_weight else score.relaxed_weight
    in
    extension ~last ~binding:(Some (s lsr 1)) ~weight
  in
  match survivors with
  | [] ->
      if spec.optional && deletion_ok plan pm ~server then begin
        stats.matches_created <- stats.matches_created + 1;
        {
          extensions = [ extension ~last:true ~binding:None ~weight:0.0 ];
          died = false;
        }
      end
      else begin
        stats.matches_died <- stats.matches_died + 1;
        { extensions = []; died = true }
      end
  | _ ->
      let deletion_branch =
        needs_deletion_branch plan spec && deletion_ok plan pm ~server
      in
      let extensions =
        match (survivors, deletion_branch) with
        | [ s ], false ->
            (* Sole extension: transfer the parent's bindings array
               instead of copying it — the parent is consumed here. *)
            [ bound_extension ~last:true s ]
        | _ ->
            (* Bound extensions in document order, deletion branch last
               (ids follow creation order): cons everything onto an
               accumulator and reverse once — no O(n) append. *)
            let rev_exts =
              List.fold_left
                (fun acc s -> bound_extension ~last:false s :: acc)
                [] survivors
            in
            List.rev
              (if deletion_branch then
                 extension ~last:false ~binding:None ~weight:0.0 :: rev_exts
               else rev_exts)
      in
      stats.matches_created <- stats.matches_created + List.length extensions;
      { extensions; died = false }
[@@wp.hot]
