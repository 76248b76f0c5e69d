module Pattern = Wp_pattern.Pattern
module Relation = Wp_relax.Relation
module Relaxation = Wp_relax.Relaxation
module Server_spec = Wp_relax.Server_spec
module Dataguide = Wp_stats.Dataguide
module D = Diagnostic

let wildcard = Wp_xml.Index.wildcard

(* --- well-formedness --- *)

(* Characters that the XPath subset cannot express and the matcher
   compares literally — a tag containing them can never have been meant. *)
let valid_tag tag =
  String.length tag > 0
  && (String.equal tag wildcard
     || String.for_all
          (fun c ->
            (not (Char.code c < 0x21)) && not (String.contains "/[]'\"=*," c))
          tag)

let well_formedness pat =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let root = Pattern.root pat in
  List.iter
    (fun i ->
      (match Pattern.parent pat i with
      | None when i <> root ->
          add (D.errorf ~node:i "ill-formed/preorder" "non-root node has no parent")
      | Some p when i = root ->
          add (D.errorf ~node:i "ill-formed/preorder" "the root has parent q%d" p)
      | Some p when p >= i ->
          add
            (D.errorf ~node:i "ill-formed/preorder"
               "parent q%d does not precede q%d: node ids must be preorder ranks"
               p i)
      | None | Some _ -> ());
      let tag = Pattern.tag pat i in
      if not (valid_tag tag) then
        add
          (D.errorf ~node:i "ill-formed/bad-tag" "invalid element tag %S" tag);
      match Pattern.value pat i with
      | Some v when not (Pattern.is_leaf pat i) ->
          add
            (D.errorf ~node:i "ill-formed/value-on-internal"
               "value predicate = %S on a non-leaf query node; content \
                predicates apply to leaves only, so this node can never match"
               v)
      | Some "" ->
          add
            (D.warningf ~node:i "ill-formed/empty-value"
               "empty value predicate matches only empty content")
      | Some _ | None -> ())
    (Pattern.node_ids pat);
  List.rev !ds

(* --- redundancy / subsumption --- *)

let edge_str = function Pattern.Pc -> "/" | Pattern.Ad -> "~"

let rec subtree_key pat i =
  let child_keys =
    List.sort String.compare
      (List.map
         (fun c -> edge_str (Pattern.edge pat c) ^ subtree_key pat c)
         (Pattern.children pat i))
  in
  Printf.sprintf "%s%s(%s)" (Pattern.tag pat i)
    (match Pattern.value pat i with None -> "" | Some v -> "=" ^ v)
    (String.concat "," child_keys)

(* [slot_subsumes ~general:g ~specific:s]: every match providing a
   witness for sibling predicate [s] also provides one for [g] (same
   document node works: servers bind pattern nodes independently, so no
   injectivity is required). *)
let rec slot_subsumes pat ~general:g ~specific:s =
  (Pattern.edge pat g = Pattern.Ad || Pattern.edge pat g = Pattern.edge pat s)
  && (String.equal (Pattern.tag pat g) (Pattern.tag pat s)
     || String.equal (Pattern.tag pat g) wildcard)
  && (match Pattern.value pat g with
     | None -> true
     | Some v -> Pattern.value pat s = Some v)
  && List.for_all
       (fun gc ->
         List.exists
           (fun sc -> slot_subsumes pat ~general:gc ~specific:sc)
           (Pattern.children pat s))
       (Pattern.children pat g)

let redundancy pat =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  List.iter
    (fun n ->
      let slots =
        List.map
          (fun c -> (c, edge_str (Pattern.edge pat c) ^ subtree_key pat c))
          (Pattern.children pat n)
      in
      let rec pairs = function
        | [] -> ()
        | (ci, ki) :: rest ->
            List.iter
              (fun (cj, kj) ->
                if String.equal ki kj then
                  add
                    (D.warningf ~node:cj "redundant/duplicate-predicate"
                       "sibling predicate duplicates q%d: its tf contribution \
                        is counted twice"
                       ci)
                else if slot_subsumes pat ~general:ci ~specific:cj then
                  add
                    (D.warningf ~node:ci "redundant/subsumed-predicate"
                       "predicate is implied by sibling q%d: it never filters \
                        answers and only rescales scores"
                       cj)
                else if slot_subsumes pat ~general:cj ~specific:ci then
                  add
                    (D.warningf ~node:cj "redundant/subsumed-predicate"
                       "predicate is implied by sibling q%d: it never filters \
                        answers and only rescales scores"
                       ci))
              rest;
            pairs rest
      in
      pairs slots)
    (Pattern.node_ids pat);
  List.rev !ds

(* --- plan consistency --- *)

let relation_valid (r : Relation.t) =
  r.min_depth >= 1
  && match r.max_depth with None -> true | Some m -> m >= r.min_depth

let check_relation ~node ~what (r : Relation.t) =
  if relation_valid r then []
  else
    [
      D.errorf ~node "unsatisfiable/contradictory-depth"
        "%s relation %a has contradictory depth bounds: no node pair can \
         satisfy it"
        what Relation.pp r;
    ]

let composed_relation pat ~anc ~desc =
  match Pattern.path_edges pat anc desc with
  | Some (_ :: _ as edges) -> Some (Relation.of_edges edges)
  | Some [] | None -> None

let plan_consistency ~config pat (specs : Server_spec.t array) =
  let n = Pattern.size pat in
  if Array.length specs <> n then
    [
      D.errorf "plan/size-mismatch" "plan carries %d server specs for a %d-node query"
        (Array.length specs) n;
    ]
  else begin
    let root = Pattern.root pat in
    let ds = ref [] in
    let add d = ds := d :: !ds in
    let addl l = List.iter add l in
    Array.iteri
      (fun i (s : Server_spec.t) ->
        if s.node <> i then
          add
            (D.errorf ~node:i "plan/node-id" "spec at index %d names node q%d" i
               s.node);
        if not (String.equal s.tag (Pattern.tag pat i)) then
          add
            (D.errorf ~node:i "plan/tag-mismatch"
               "server tag %S differs from query node tag %S" s.tag
               (Pattern.tag pat i));
        if s.value <> Pattern.value pat i then
          add
            (D.errorf ~node:i "plan/value-mismatch"
               "server value predicate differs from the query node's");
        let expect_optional = i <> root && config.Relaxation.leaf_deletion in
        if s.optional <> expect_optional then
          add
            (D.errorf ~node:i "plan/optional-flag"
               "node is %s under this configuration but the spec says %s"
               (if expect_optional then "deletable" else "mandatory")
               (if s.optional then "deletable" else "mandatory"));
        (* The structural (to-root) predicate. *)
        let c = s.to_root in
        addl (check_relation ~node:i ~what:"structural" c.exact);
        Option.iter
          (fun r -> addl (check_relation ~node:i ~what:"relaxed structural" r))
          c.relaxed;
        if not c.hard then
          add
            (D.errorf ~node:i "plan/hard-flag"
               "the structural predicate must be hard");
        let expect_exact =
          if i = root then Some (Relation.of_edge (Pattern.root_edge pat))
          else composed_relation pat ~anc:root ~desc:i
        in
        (match expect_exact with
        | None ->
            add
              (D.errorf ~node:i "plan/exact-relation"
                 "query node is unreachable from the root")
        | Some expect ->
            if not (Relation.equal c.exact expect) then
              add
                (D.errorf ~node:i "plan/exact-relation"
                   "structural predicate %a differs from the composed pattern \
                    path %a"
                   Relation.pp c.exact Relation.pp expect);
            let expect_relaxed =
              if i = root then
                if config.Relaxation.edge_generalization then
                  Relation.generalize expect
                else expect
              else Relaxation.relax_to_root config expect
            in
            let expect_relaxed =
              if Relation.equal expect_relaxed expect then None
              else Some expect_relaxed
            in
            (match (c.relaxed, expect_relaxed) with
            | None, None -> ()
            | Some a, Some b when Relation.equal a b -> ()
            | _ ->
                add
                  (D.errorf ~node:i "plan/relaxed-relation"
                     "relaxed structural level %s does not match the \
                      configuration's permitted relaxation %s"
                     (match c.relaxed with
                     | None -> "(none)"
                     | Some r -> Relation.to_string r)
                     (match expect_relaxed with
                     | None -> "(none)"
                     | Some r -> Relation.to_string r))));
        (match c.relaxed with
        | Some r when not (Relation.is_subrelation c.exact r) ->
            add
              (D.errorf ~node:i "plan/relaxed-not-weaker"
                 "relaxed level %a does not contain the exact level %a"
                 Relation.pp r Relation.pp c.exact)
        | Some _ | None -> ());
        (* The conditional predicate sequence. *)
        let expected_others =
          List.sort Int.compare
            (List.filter (fun a -> a <> root) (Pattern.ancestors pat i)
            @ Pattern.descendants pat i)
        in
        let actual_others =
          List.sort Int.compare
            (List.map
               (fun (c : Server_spec.conditional) -> c.other)
               s.conditionals)
        in
        if actual_others <> expected_others then
          add
            (D.errorf ~node:i "plan/conditional-set"
               "conditional predicate sequence covers [%s] but the pattern \
                relates this node to [%s]"
               (String.concat ";" (List.map string_of_int actual_others))
               (String.concat ";" (List.map string_of_int expected_others)));
        List.iter
          (fun (c : Server_spec.conditional) ->
            if c.other < 0 || c.other >= n then
              add
                (D.errorf ~node:i "plan/conditional-pair"
                   "conditional references node q%d outside the query" c.other)
            else begin
              let anc, desc = if c.downward then (i, c.other) else (c.other, i) in
              match composed_relation pat ~anc ~desc with
              | None ->
                  add
                    (D.errorf ~node:i "plan/conditional-pair"
                       "conditional towards q%d contradicts the pattern: the \
                        nodes are not in %s position"
                       c.other
                       (if c.downward then "ancestor-descendant"
                        else "descendant-ancestor"))
              | Some expect ->
                  addl (check_relation ~node:i ~what:"conditional" c.exact);
                  Option.iter
                    (fun r ->
                      addl (check_relation ~node:i ~what:"relaxed conditional" r))
                    c.relaxed;
                  if not (Relation.equal c.exact expect) then
                    add
                      (D.errorf ~node:i "plan/exact-relation"
                         "conditional towards q%d tests %a but the pattern \
                          path composes to %a"
                         c.other Relation.pp c.exact Relation.pp expect);
                  let expect_relaxed = Relaxation.relax_internal config expect in
                  let expect_relaxed =
                    if Relation.equal expect_relaxed expect then None
                    else Some expect_relaxed
                  in
                  (match (c.relaxed, expect_relaxed) with
                  | None, None -> ()
                  | Some a, Some b when Relation.equal a b -> ()
                  | _ ->
                      add
                        (D.errorf ~node:i "plan/relaxed-relation"
                           "conditional towards q%d: relaxed level %s does \
                            not match the permitted relaxation %s"
                           c.other
                           (match c.relaxed with
                           | None -> "(none)"
                           | Some r -> Relation.to_string r)
                           (match expect_relaxed with
                           | None -> "(none)"
                           | Some r -> Relation.to_string r)));
                  let expect_hard = not config.Relaxation.subtree_promotion in
                  if c.hard <> expect_hard then
                    add
                      (D.errorf ~node:i "plan/hard-flag"
                         "conditional towards q%d is %s but subtree promotion \
                          makes every internal predicate %s"
                         c.other
                         (if c.hard then "hard" else "soft")
                         (if expect_hard then "hard" else "soft"))
            end)
          s.conditionals)
      specs;
    List.rev !ds
  end

(* --- lattice consistency --- *)

(* Smallest interval relation containing both arguments. *)
let join (a : Relation.t) (b : Relation.t) : Relation.t =
  {
    min_depth = min a.min_depth b.min_depth;
    max_depth =
      (match (a.max_depth, b.max_depth) with
      | Some x, Some y -> Some (max x y)
      | _ -> None);
  }

let lattice_consistency ?(max_lattice = 2000) ~config pat
    (specs : Server_spec.t array) =
  let n = Pattern.size pat in
  if Array.length specs <> n || n < 2 then []
  else
    match Relaxation.closure_labeled ~limit:max_lattice config pat with
    | exception Failure _ ->
        [
          D.infof "plan/lattice-skipped"
            "relaxation lattice exceeds %d patterns; cross-check skipped"
            max_lattice;
        ]
    | lattice ->
        let ds = ref [] in
        let add d = ds := d :: !ds in
        let hull : Relation.t option array = Array.make n None in
        let reported_root = Hashtbl.create 8 in
        let reported_pair = Hashtbl.create 8 in
        List.iter
          (fun ((rp : Pattern.t), (orig : int array)) ->
            let rroot = Pattern.root rp in
            let note o rel =
              hull.(o) <-
                (match hull.(o) with
                | None -> Some rel
                | Some h -> Some (join h rel));
              let bound = Server_spec.candidate_relation specs.(o) in
              if
                (not (Relation.is_subrelation rel bound))
                && not (Hashtbl.mem reported_root o)
              then begin
                Hashtbl.add reported_root o ();
                add
                  (D.errorf ~node:o "plan/lattice-escape"
                     "relaxation %s places this node in relation %a to the \
                      root, outside the server's most relaxed structural \
                      predicate %a"
                     (Pattern.to_string rp) Relation.pp rel Relation.pp bound)
              end
            in
            note orig.(rroot) (Relation.of_edge (Pattern.root_edge rp));
            List.iter
              (fun j ->
                if j <> rroot then begin
                  (match composed_relation rp ~anc:rroot ~desc:j with
                  | Some rel -> note orig.(j) rel
                  | None -> ());
                  (* Hard conditionals must admit every lattice-legal
                     placement of the pair. *)
                  List.iter
                    (fun a ->
                      if a <> rroot then
                        match composed_relation rp ~anc:a ~desc:j with
                        | None -> ()
                        | Some rel -> (
                            let oa = orig.(a) and oj = orig.(j) in
                            match
                              List.find_opt
                                (fun (c : Server_spec.conditional) ->
                                  c.other = oa && not c.downward)
                                specs.(oj).conditionals
                            with
                            | Some c when c.hard ->
                                let bound =
                                  match c.relaxed with
                                  | Some r -> r
                                  | None -> c.exact
                                in
                                if
                                  (not (Relation.is_subrelation rel bound))
                                  && not (Hashtbl.mem reported_pair (oa, oj))
                                then begin
                                  Hashtbl.add reported_pair (oa, oj) ();
                                  add
                                    (D.errorf ~node:oj "plan/lattice-escape"
                                       "relaxation %s relates q%d to q%d by \
                                        %a, outside the hard conditional's \
                                        most relaxed level %a"
                                       (Pattern.to_string rp) oj oa Relation.pp
                                       rel Relation.pp bound)
                                end
                            | Some _ | None -> ()))
                    (Pattern.ancestors rp j)
                end)
              (Pattern.node_ids rp))
          lattice;
        Array.iteri
          (fun o h ->
            match h with
            | None -> ()
            | Some h ->
                let bound = Server_spec.candidate_relation specs.(o) in
                if
                  Relation.is_subrelation h bound
                  && not (Relation.equal h bound)
                then
                  add
                    (D.warningf ~node:o "plan/lattice-slack"
                       "most relaxed structural predicate %a admits depths no \
                        composition of the enabled relaxations reaches \
                        (lattice hull %a)"
                       Relation.pp bound Relation.pp h))
          hull;
        List.rev !ds

(* --- document-dependent checks --- *)

let document_checks ~config guide pat =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let root = Pattern.root pat in
  let root_tag = Pattern.tag pat root in
  let report ~node sev code fmt =
    Format.kasprintf (fun m -> add (D.make ~node sev code m)) fmt
  in
  (* Severity of a per-node finding: a deletable node degrades the score;
     a mandatory one makes complete answers impossible. *)
  let node_sev = if config.Relaxation.leaf_deletion then D.Warning else D.Error in
  let root_missing = Dataguide.tag_count guide root_tag = 0 in
  if root_missing then
    report ~node:root D.Error "vocabulary/unknown-tag"
      "tag %S does not occur in the document: the query has no candidate \
       answers and every component predicate's idf is zero"
      root_tag;
  List.iter
    (fun i ->
      if i <> root then begin
        let tag = Pattern.tag pat i in
        if
          (not (String.equal tag wildcard))
          && Dataguide.tag_count guide tag = 0
        then
          report ~node:i node_sev "vocabulary/unknown-tag"
            "tag %S does not occur in the document%s" tag
            (if config.Relaxation.leaf_deletion then
               "; the node can only be deleted"
             else "; no complete match exists")
        else if not root_missing then begin
          match composed_relation pat ~anc:root ~desc:i with
          | None -> ()
          | Some exact ->
              let relaxed = Relaxation.relax_to_root config exact in
              let pairs =
                Dataguide.pairs_in_relation guide ~anc:root_tag ~desc:tag
              in
              if pairs relaxed = 0 then
                report ~node:i node_sev "unsatisfiable/no-pairs"
                  "no (%s, %s) node pair in the document satisfies the \
                   structural predicate even at its most relaxed level %s"
                  root_tag tag (Relation.to_string relaxed)
              else if pairs exact = 0 then
                report ~node:i D.Info "score/exact-level-unreachable"
                  "no (%s, %s) node pair satisfies the exact level %s: every \
                   binding of this node scores at the relaxed weight"
                  root_tag tag (Relation.to_string exact)
        end
      end)
    (Pattern.node_ids pat);
  add
    (D.infof "score/static-bound"
       "static score bound: no answer can exceed Σ idf·tf = %.4f"
       (Score_bound.of_pattern ~config guide pat));
  List.rev !ds

(* --- entry points --- *)

let quick ~config ~specs pat =
  well_formedness pat @ plan_consistency ~config pat specs

let check ?guide ?specs ?max_lattice ~config pat =
  let specs =
    match specs with Some s -> s | None -> Server_spec.build config pat
  in
  let ds =
    well_formedness pat @ redundancy pat
    @ plan_consistency ~config pat specs
    @ lattice_consistency ?max_lattice ~config pat specs
    @ match guide with
      | Some guide -> document_checks ~config guide pat
      | None -> []
  in
  D.sort ds

exception Rejected of Diagnostic.t list

let validate_exn ~config ~specs pat =
  let ds = quick ~config ~specs pat in
  if D.has_errors ds then raise (Rejected (D.errors ds))
