(* Seed-time bounds: every root candidate starts with a per-root upper
   bound read off the component table's sweep bitsets, and the engines
   open roots class by class through one seed cursor ([Seeds]) instead
   of seeding a match per root.

   - The bitset-derived bound equals the brute-force one (a per-root
     slice scan, the definition spelled out), and no match a root spawns
     scores above it — under every shipped relaxation configuration and
     score normalization.
   - The seed cursor opens the classes in order, each in document
     order, which gives the live roots in the order a queue holding
     every seed would pop them, also when two level signatures share a
     bound and a root weight.
   - The top-k scores of Whirlpool-S, Whirlpool-M (under the
     deterministic scheduler) and the simulated Whirlpool-M still equal
     the no-pruning reference's.
   - Streaming: the streamed answers are the final answers, and no entry
     certifies while a root whose seed bound exceeds its score is still
     unopened, under all four queue policies, for Whirlpool-S and
     Whirlpool-M.
   - Whirlpool-M opens fewer seeds than there are live roots on the
     fig6 document. *)

open Whirlpool
module Doc = Wp_xml.Doc
module Index = Wp_xml.Index
module Relation = Wp_relax.Relation
module Relaxation = Wp_relax.Relaxation
module Server_spec = Wp_relax.Server_spec
module Score_table = Wp_score.Score_table
module Pattern = Wp_pattern.Pattern
module Prove = Wp_analysis.Prove

(* Values of one or two space-separated tokens, so that content
   relaxation (token containment) has something to accept. *)
let gen_tree =
  let open QCheck2.Gen in
  let tag = map (fun i -> Printf.sprintf "t%d" i) (int_bound 4) in
  let token = map (fun i -> Printf.sprintf "v%d" i) (int_bound 4) in
  let value =
    opt
      (oneof
         [ token; map2 (fun a b -> a ^ " " ^ b) token token ])
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then
           map2
             (fun t v -> { Wp_xml.Tree.tag = t; value = v; children = [] })
             tag value
         else
           map3
             (fun t v cs -> { Wp_xml.Tree.tag = t; value = v; children = cs })
             tag value
             (list_size (int_bound 3) (self (n / 4))))

let gen_pattern =
  let open QCheck2.Gen in
  let tag = map (fun i -> Printf.sprintf "t%d" i) (int_bound 4) in
  let value =
    frequency
      [ (3, return None); (1, map (fun i -> Some (Printf.sprintf "v%d" i)) (int_bound 4)) ]
  in
  let edge = map (fun b -> if b then Pattern.Pc else Pattern.Ad) bool in
  let spec =
    fix
      (fun self depth ->
        if depth = 0 then map2 (fun t value -> Pattern.n ?value t []) tag value
        else
          map3
            (fun t value cs -> Pattern.n ?value t cs)
            tag value
            (list_size (int_bound 2)
               (map2 (fun e s -> (e, s)) edge (self (depth - 1)))))
      2
  in
  map2 (fun e s -> Pattern.of_spec ~root_edge:e s) edge spec

let gen_inputs =
  QCheck2.Gen.pair (QCheck2.Gen.map Doc.of_tree gen_tree) gen_pattern

(* Every shipped configuration and normalization, compiled over one
   shared component table, as a catalog document's plans are.  A
   pattern the analyzer refuses (a value on an internal node) compiles
   to no plan. *)
let plans doc pat =
  let idx = Index.build doc in
  let memo = Wp_score.Component_table.create () in
  match
    List.concat_map
      (fun config ->
        List.map
          (fun normalization ->
            Plan.compile ~normalization ~memo idx config pat)
          Prove.shipped_normalizations)
      Prove.shipped_configs
  with
  | plans -> plans
  | exception Wp_analysis.Lint.Rejected _ -> []

let content plan value n =
  match value with
  | None -> Relaxation.Content_exact
  | Some query ->
      Relaxation.content_level plan.Plan.config ~query
        ~actual:(Doc.value (Index.doc plan.Plan.index) n)

(* The seed bound by brute force: scan each server's candidates below
   the root, as [Server.process] would, and keep the best weight. *)
let brute_bound (plan : Plan.t) root =
  let doc = Index.doc plan.index in
  let e0 = Score_table.entry plan.scores 0 in
  let spec0 = plan.specs.(0) in
  let root_exact =
    Relation.test doc spec0.to_root.exact ~anc:(Doc.root doc) ~desc:root
    && content plan spec0.value root = Relaxation.Content_exact
  in
  let rest = ref 0.0 in
  for s = 1 to plan.n_servers - 1 do
    let spec = plan.specs.(s) in
    let e = Score_table.entry plan.scores s in
    let accepted = ref false and exact = ref false in
    List.iter
      (fun n ->
        let c = content plan spec.value n in
        if
          c <> Relaxation.Content_reject
          && Relation.test doc (Server_spec.candidate_relation spec) ~anc:root
               ~desc:n
        then begin
          accepted := true;
          if
            c = Relaxation.Content_exact
            && Relation.test doc spec.to_root.exact ~anc:root ~desc:n
          then exact := true
        end)
      (Index.descendants plan.index spec.tag ~root);
    let cap =
      if !exact then e.exact_weight
      else if !accepted then e.relaxed_weight
      else if spec.optional then 0.0
      else Float.neg_infinity
    in
    rest := !rest +. cap
  done;
  (if root_exact then e0.exact_weight else e0.relaxed_weight) +. !rest

let prop_bitset_bound_equals_scan =
  QCheck2.Test.make ~name:"bitset seed bound = per-root slice scan" ~count:100
    gen_inputs (fun (doc, pat) ->
      List.for_all
        (fun (plan : Plan.t) ->
          let live = ref 0 in
          Array.iter
            (fun root ->
              let want = brute_bound plan root in
              let got = Plan.bound_of_root plan ~root in
              if want > Float.neg_infinity then incr live;
              if got <> want then
                QCheck2.Test.fail_reportf "%s (%a): root %d bound %h, scan %h"
                  (Pattern.to_string pat) Relaxation.pp_config plan.config
                  root got want)
            plan.roots;
          Plan.n_seeds plan = !live)
        (plans doc pat))

(* A class's roots by its signatures alone: from its first word on,
   one [next_root] at a time, in document order. *)
let scan (plan : Plan.t) (c : Plan.seed_class) =
  let rec go pos acc =
    match Plan.next_root plan c.signatures pos with
    | -1 -> List.rev acc
    | p -> go (p + 1) (Index.posting plan.root_postings p :: acc)
  in
  go (c.first_word * 64) []

let id_gen () =
  let n = ref 0 in
  fun () -> incr n; !n

(* Every seed the cursor opens against an empty set, which kills no
   class, in order, with the cursor's head when it was opened. *)
let opened (plan : Plan.t) =
  let seeds = Seeds.create plan (Stats.create ()) and next_id = id_gen () in
  let empty = Topk_set.create ~k:1 ~admit_partial:true () in
  let rec go acc =
    let head = Seeds.head seeds in
    match Seeds.open_next seeds empty ~next_id with
    | None -> List.rev acc
    | Some pm -> go ((head, pm) :: acc)
  in
  go []

(* The order a max-final-score queue holding every seed pops the live
   roots in: seed bound, then root weight, both descending, then
   document order. *)
let pop_order (plan : Plan.t) =
  let key root = (Plan.bound_of_root plan ~root, Plan.root_weight plan root) in
  List.stable_sort
    (fun a b ->
      let ba, wa = key a and bb, wb = key b in
      match Float.compare bb ba with 0 -> Float.compare wb wa | c -> c)
    (List.filter
       (fun root -> Plan.bound_of_root plan ~root > Float.neg_infinity)
       (Array.to_list plan.roots))

(* The cursor opens exactly the live roots in pop order, class by class:
   each class's roots at its bound (the cursor's head, and the seed's
   [max_possible]) and its weight (the seed's score), as many as its
   size and as its signatures select; a fresh cursor drained eagerly
   gives the same roots in document order. *)
let prop_drain_order =
  QCheck2.Test.make ~name:"class drain order = seed pop order" ~count:100
    gen_inputs (fun (doc, pat) ->
      List.for_all
        (fun (plan : Plan.t) ->
          let fail fmt =
            QCheck2.Test.fail_reportf
              ("%s (%a): " ^^ fmt)
              (Pattern.to_string pat) Relaxation.pp_config plan.config
          in
          let rest =
            Array.fold_left
              (fun seeds (c : Plan.seed_class) ->
                let n = List.length (scan plan c) in
                if n <> c.size then fail "class of size %d drains %d" c.size n;
                List.iteri
                  (fun i (head, (pm : Partial_match.t)) ->
                    let root = Partial_match.root_binding pm in
                    if i < c.size then begin
                      if
                        head <> c.bound || pm.max_possible <> c.bound
                        || pm.score <> c.weight
                        || Plan.bound_of_root plan ~root <> c.bound
                        || Plan.root_weight plan root <> c.weight
                      then fail "root %d in class %h/%h" root c.bound c.weight
                    end)
                  seeds;
                List.filteri (fun i _ -> i >= c.size) seeds)
              (opened plan) plan.seeds
          in
          if rest <> [] then fail "%d seeds past the last class" (List.length rest);
          let order =
            List.map (fun (_, pm) -> Partial_match.root_binding pm) (opened plan)
          in
          if order <> pop_order plan then
            fail "opened [%s], pop order [%s]"
              (String.concat " " (List.map string_of_int order))
              (String.concat " " (List.map string_of_int (pop_order plan)));
          List.map Partial_match.root_binding
            (Seeds.drain (Seeds.create plan (Stats.create ())) ~next_id:(id_gen ()))
          = List.sort Int.compare order)
        (plans doc pat))

(* Two signatures with one bound and one root weight make one class:
   under leaf deletion [x] and [y] are optional servers of equal
   weight, and the root holding only a [y] (first in the document) and
   the one holding only an [x] tie.  The class drains them in document
   order, although the [x]-only signature is found first. *)
let test_equal_signatures_merge () =
  let doc =
    Doc.of_forest ~root_tag:"r"
      [ Wp_xml.Tree.el "a" [ Wp_xml.Tree.el "y" [] ];
        Wp_xml.Tree.el "a" [ Wp_xml.Tree.el "x" [] ] ]
  in
  let plan =
    Plan.compile (Index.build doc) Relaxation.all (Fixtures.parse "//a[./x and ./y]")
  in
  let weight s = (Score_table.entry plan.scores s).exact_weight in
  Alcotest.(check (float 0.0)) "x and y weigh the same" (weight 1) (weight 2);
  Alcotest.(check int) "one class" 1 (Plan.n_classes plan);
  let c = plan.seeds.(0) in
  Alcotest.(check int) "two signatures" 2 (Array.length c.signatures);
  Alcotest.(check int) "two roots" 2 c.size;
  Alcotest.(check (list int)) "document order" (Array.to_list plan.roots)
    (List.map (fun (_, pm) -> Partial_match.root_binding pm) (opened plan))

(* Whirlpool-M under the deterministic scheduler, on the schedule that
   [seed] picks; a deadlock, a runaway schedule or an exception fails
   the test. *)
let wm_sched ?(config = Engine.Config.default) ~seed plan ~k =
  let r =
    Sched.run
      ~choose:(Sched.random ~seed)
      (fun sync ->
        let module S = (val sync : Sync.S) in
        let module E = Engine_mt.Make (S) in
        E.run ~config plan ~k)
  in
  if r.blocked <> [] || r.budget_exceeded then
    Alcotest.failf "Whirlpool-M schedule %d did not finish (%s)" seed
      (String.concat ", " r.blocked);
  match r.value with Ok res -> res | Error e -> raise e

let sim_costs = { Sim_exec.op_cost = 1e-3; route_cost = 1e-5 }

(* Every entry of a threshold-free run (one per root that has a match)
   scores within its root's seed bound, and the top-k scores of
   Whirlpool-S, Whirlpool-M (one fixed schedule per plan) and the
   simulated Whirlpool-M equal the no-pruning reference's. *)
let close a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) a b

let prop_bound_covers_matches =
  QCheck2.Test.make
    ~name:"seed bound >= every match score; W-S = W-M = sim = NoPrun"
    ~count:100 gen_inputs (fun (doc, pat) ->
      List.for_all
        (fun (i, (plan : Plan.t)) ->
          let all = Engine.run_above plan ~threshold:Float.neg_infinity in
          let reference =
            Fixtures.sorted_scores (Lockstep.run ~prune:false plan ~k:3).answers
          in
          List.for_all
            (fun (e : Topk_set.entry) ->
              e.score <= Plan.bound_of_root plan ~root:e.root +. 1e-9)
            all.answers
          && List.for_all
               (fun (answers : Topk_set.entry list) ->
                 close reference (Fixtures.sorted_scores answers))
               [
                 (Engine.run plan ~k:3).answers;
                 (wm_sched ~seed:i plan ~k:3).answers;
                 (Sim_exec.simulate_m ~costs:sim_costs ~processors:2 plan
                    ~k:3)
                   .engine
                   .answers;
               ])
        (List.mapi (fun i p -> (i, p)) (plans doc pat)))

let policies =
  Strategy.
    [
      ("fifo", Fifo);
      ("current", Current_score);
      ("max_next", Max_next_score);
      ("max_final", Max_final_score);
    ]

let queries = [ ("Q1", Fixtures.q1); ("Q2", Fixtures.q2); ("Q3", Fixtures.q3) ]

(* Live roots whose seed bound is strictly above [score]. *)
let roots_above (plan : Plan.t) score =
  Array.fold_left
    (fun n (c : Plan.seed_class) -> if c.bound > score then n + c.size else n)
    0 plan.seeds

(* The engines the replay runs: Whirlpool-S, and Whirlpool-M on one
   fixed schedule per k. *)
let engines =
  [
    ("W-S", fun config plan ~k -> Engine.run ~config plan ~k);
    ("W-M", fun config plan ~k -> wm_sched ~config ~seed:k plan ~k);
  ]

(* Streams every certified entry with the number of engine events seen
   before it, then replays the event log: a popped match that no
   [Extended] event created is a seed, and its [max_possible] is its
   root's seed bound.  When an entry certifies, every live root whose
   bound exceeds the entry's score must already have been popped. *)
let test_streaming_with_lazy_seeds () =
  let idx = Lazy.force Fixtures.xmark_index in
  List.iter
    (fun (qname, q) ->
      let plan = Run.compile idx (Fixtures.parse q) in
      List.iter
        (fun k ->
          List.iter
            (fun ((pname, policy), (ename, run)) ->
              let label = Printf.sprintf "%s %s k=%d %s" ename qname k pname in
              let obs = Wp_obs.Obs.create ~max_spans:1 () in
              let events () =
                List.concat_map
                  (fun (s : Wp_obs.Obs.span_record) -> s.events)
                  (Wp_obs.Obs.spans obs)
              in
              let n_events () =
                List.fold_left
                  (fun n (s : Wp_obs.Obs.span_record) -> n + List.length s.events)
                  0 (Wp_obs.Obs.spans obs)
              in
              let streamed = ref [] in
              let config =
                Engine.Config.(
                  default |> with_queue_policy policy |> with_obs obs
                  |> with_on_certified (fun e ->
                         streamed := (e, n_events ()) :: !streamed))
              in
              let r : Engine.result = run config plan ~k in
              let streamed = List.rev !streamed in
              Alcotest.(check (list (pair int (float 0.0))))
                (label ^ ": streamed = answers")
                (List.map
                   (fun (e : Topk_set.entry) -> (e.root, e.score))
                   r.answers)
                (List.map
                   (fun ((e : Topk_set.entry), _) -> (e.root, e.score))
                   streamed);
              let log =
                Array.of_list
                  (List.sort
                     (fun (a : Wp_obs.Obs.stamped) b -> Int.compare a.seq b.seq)
                     (events ()))
              in
              let children = Hashtbl.create 1024 in
              Array.iter
                (fun (e : Wp_obs.Obs.stamped) ->
                  match e.event with
                  | Wp_obs.Obs.Extended { id; _ } -> Hashtbl.replace children id ()
                  | _ -> ())
                log;
              List.iter
                (fun ((e : Topk_set.entry), seen) ->
                  let opened = Hashtbl.create 64 in
                  for i = 0 to seen - 1 do
                    match log.(i).event with
                    | Wp_obs.Obs.Popped { id; max_possible; _ }
                      when (not (Hashtbl.mem children id))
                           && max_possible > e.score ->
                        Hashtbl.replace opened id ()
                    | _ -> ()
                  done;
                  Alcotest.(check int)
                    (Printf.sprintf "%s: roots above %.3f opened before root %d certified"
                       label e.score e.root)
                    (roots_above plan e.score) (Hashtbl.length opened))
                streamed;
              (* Whirlpool-M's router opens seeds while the servers are
                 busy, so it may open more than Whirlpool-S, but never a
                 root twice. *)
              if policy <> Strategy.Max_final_score then
                Alcotest.(check int)
                  (label ^ ": eager seeds build every live root")
                  (Plan.n_seeds plan) r.stats.seeds_materialized
              else if ename = "W-S" then
                Alcotest.(check bool)
                  (label ^ ": lazy seeds build fewer seeds than live roots")
                  true
                  (r.stats.seeds_materialized < Plan.n_seeds plan)
              else
                Alcotest.(check bool)
                  (label ^ ": lazy seeds build at most the live roots")
                  true
                  (r.stats.seeds_materialized <= Plan.n_seeds plan);
              Alcotest.(check bool)
                (label ^ ": every root counts as created")
                true
                (r.stats.matches_created >= Array.length plan.roots))
            (List.concat_map
               (fun p -> List.map (fun e -> (p, e)) engines)
               policies))
        [ 10; 75 ])
    queries

(* The fig6 document at the benchmark's quick scale (1 MB, seed 42):
   Q1 at k = 15 has 1,012 live roots in two classes.  Whirlpool-M opens
   only some of them on every schedule tried, with Whirlpool-S's
   scores.  The simulator gets the same scores; with free CPUs its
   router, whose decisions cost a hundredth of a server op here, may
   open every root of the head class before the first answers
   complete, so it is only held to the live roots. *)
let test_wm_opens_by_class () =
  let idx =
    Index.build
      (Wp_xmark.Generator.generate_doc ~seed:42 ~target_bytes:1_000_000 ())
  in
  let plan = Run.compile idx (Fixtures.parse Fixtures.q1) in
  let reference = Fixtures.sorted_scores (Engine.run plan ~k:15).answers in
  let check label ~below (r : Engine.result) =
    Fixtures.check_scores_equal ~msg:(label ^ ": W-S's scores") reference
      (Fixtures.sorted_scores r.answers);
    let n = Plan.n_seeds plan and built = r.stats.seeds_materialized in
    if built > n || (below && built = n) then
      Alcotest.failf "%s built %d seeds of %d live roots" label built n
  in
  List.iter
    (fun seed ->
      check (Printf.sprintf "W-M schedule %d" seed) ~below:true
        (wm_sched ~seed plan ~k:15))
    [ 0; 1; 2; 3; 4 ];
  List.iter
    (fun processors ->
      check
        (Printf.sprintf "sim on %d cpus" processors)
        ~below:false
        (Sim_exec.simulate_m ~costs:sim_costs ~processors plan ~k:15).engine)
    [ 1; 2; 4; 100_000 ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bitset_bound_equals_scan;
    QCheck_alcotest.to_alcotest prop_drain_order;
    Alcotest.test_case "equal signatures merge" `Quick test_equal_signatures_merge;
    QCheck_alcotest.to_alcotest prop_bound_covers_matches;
    Alcotest.test_case "streaming with lazy seeds" `Quick
      test_streaming_with_lazy_seeds;
    Alcotest.test_case "W-M opens roots by class" `Quick test_wm_opens_by_class;
  ]
