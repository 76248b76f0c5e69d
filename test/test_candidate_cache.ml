(* The per-(server, root) candidate cache must be observationally
   invisible: a cached [Server.process] yields exactly the extensions
   (bindings, scores, max_possible, died flags, creation order) the
   uncached oracle does, across random documents, relaxation
   configurations and routing orders — while doing no more candidate
   comparisons.  Plus a differential test of the heap-backed
   [Topk_set.threshold] against the fold-over-entries oracle. *)

open Whirlpool
module Doc = Wp_xml.Doc
module Index = Wp_xml.Index

let gen_config =
  QCheck2.Gen.(
    map3
      (fun eg ld sp ->
        {
          Wp_relax.Relaxation.edge_generalization = eg;
          leaf_deletion = ld;
          subtree_promotion = sp;
          value_relaxation = false;
        })
      bool bool bool)

let gen_doc = QCheck2.Gen.map Doc.of_tree Test_doc.gen_tree
let gen_inputs = QCheck2.Gen.triple gen_doc Test_matcher.small_pattern_gen gen_config

(* Snapshot a partial match into a comparable immutable value (bindings
   must be copied out: [extend_last] transfers arrays between matches). *)
let pm_repr (pm : Partial_match.t) =
  ( pm.id,
    Array.to_list pm.bindings,
    pm.visited_mask,
    pm.score,
    pm.max_possible )

(* Drive a full run through [Server.process] directly (bypassing the
   engine's pruning so every server operation is exercised), visiting
   servers in the order [pick] dictates, and record every outcome. *)
let walk ?cache (plan : Plan.t) ~pick =
  let stats = Stats.create () in
  let ctr = ref 0 in
  let next_id () =
    let id = !ctr in
    incr ctr;
    id
  in
  let events = ref [] in
  let rec go pm =
    match Partial_match.unvisited_servers pm ~n_servers:plan.n_servers with
    | [] -> events := (`Complete (pm_repr pm)) :: !events
    | servers ->
        let server = pick pm servers in
        let o = Server.process ?cache plan stats ~next_id pm ~server in
        events :=
          `Step (server, List.map pm_repr o.Server.extensions, o.Server.died)
          :: !events;
        List.iter go o.Server.extensions
  in
  List.iter go (Server.initial_matches plan stats ~next_id);
  (List.rev !events, stats)

(* Three deterministic "routing" orders: ascending, descending, and an
   id-dependent rotation (so sibling matches take different orders, as
   adaptive routing produces). *)
let picks =
  [
    ("ascending", fun _ servers -> List.hd servers);
    ("descending", fun _ servers -> List.nth servers (List.length servers - 1));
    ( "rotating",
      fun (pm : Partial_match.t) servers ->
        List.nth servers (pm.id mod List.length servers) );
  ]

let prop_cached_process_equals_oracle =
  QCheck2.Test.make
    ~name:"cached Server.process = uncached oracle (random doc/config/order)"
    ~count:120 gen_inputs
    (fun (doc, pat, config) ->
      let idx = Index.build doc in
      let plan = Run.compile ~config idx pat in
      List.for_all
        (fun (_, pick) ->
          let cache = Candidate_cache.create () in
          let cached, cstats = walk ~cache plan ~pick in
          let uncached, ustats = walk plan ~pick in
          cached = uncached
          && cstats.comparisons <= ustats.comparisons
          && cstats.server_ops = ustats.server_ops
          && cstats.matches_created = ustats.matches_created
          && cstats.matches_died = ustats.matches_died)
        picks)

(* A warmed cache answers every lookup without recomputing: replaying
   the same walk over the same cache is all hits and still identical. *)
let prop_warm_cache_all_hits =
  QCheck2.Test.make ~name:"warm cache replays with zero misses" ~count:80
    gen_inputs
    (fun (doc, pat, config) ->
      let idx = Index.build doc in
      let plan = Run.compile ~config idx pat in
      let pick _ servers = List.hd servers in
      let cache = Candidate_cache.create () in
      let first, _ = walk ~cache plan ~pick in
      let replay, rstats = walk ~cache plan ~pick in
      first = replay && rstats.cache_misses = 0
      && (rstats.cache_hits = 0 || Stats.cache_hit_rate rstats = 1.0))

(* Engine-level: with and without the cache, across routing strategies,
   the answers are identical entry-for-entry (same roots, scores,
   bindings, match ids). *)
let entry_repr (e : Topk_set.entry) =
  (e.root, e.score, e.match_id, Array.to_list e.bindings, e.progress)

let prop_engine_cache_invisible =
  QCheck2.Test.make ~name:"Engine.run ~use_cache is observationally pure"
    ~count:80 gen_inputs
    (fun (doc, pat, config) ->
      let idx = Index.build doc in
      let plan = Run.compile ~config idx pat in
      let routings =
        [
          Strategy.Min_alive;
          Strategy.Max_score;
          Strategy.Static (Strategy.default_static_order plan);
        ]
      in
      List.for_all
        (fun routing ->
          let cfg use_cache =
            Engine.Config.(
              default |> with_routing routing |> with_use_cache use_cache)
          in
          let on = Engine.run ~config:(cfg true) plan ~k:4 in
          let off = Engine.run ~config:(cfg false) plan ~k:4 in
          List.map entry_repr on.answers = List.map entry_repr off.answers
          && on.stats.comparisons <= off.stats.comparisons)
        routings)

(* --- Topk_set threshold differential ------------------------------- *)

(* Fold-over-entries oracle the heap replaced: k-th best score, or
   -inf while the set is under capacity. *)
let oracle_threshold t =
  if Topk_set.cardinality t < Topk_set.k t then neg_infinity
  else
    List.fold_left
      (fun acc (e : Topk_set.entry) -> Float.min acc e.score)
      infinity (Topk_set.entries t)

(* Script steps: a match is created with one of a few roots and a
   weight, optionally extended (progress 2 instead of 1), considered;
   or an earlier match is retracted. *)
type step = { root : int; weight : float; extend : bool; code : int }

let gen_steps =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (map3
         (fun root w code ->
           { root; weight = float_of_int w /. 8.0; extend = code mod 2 = 0; code })
         (int_bound 4) (int_bound 80) (int_bound 9)))

let prop_threshold_equals_fold_oracle =
  QCheck2.Test.make ~name:"heap threshold = fold oracle (random consider/retract)"
    ~count:300
    QCheck2.Gen.(pair (int_range 1 4) gen_steps)
    (fun (k, steps) ->
      let t = Topk_set.create ~k ~admit_partial:true in
      let considered = ref [||] in
      let id = ref 0 in
      let ok = ref true in
      List.iter
        (fun { root; weight; extend; code } ->
          (if code = 9 && Array.length !considered > 0 then
             (* retract an earlier match (possibly a stale owner) *)
             let victim =
               !considered.(int_of_float (weight *. 8.0)
                            mod Array.length !considered)
             in
             Topk_set.retract t victim
           else begin
             let pm =
               Partial_match.create_root ~plan_servers:2 ~id:!id ~root ~weight
                 ~max_rest:1.0
             in
             incr id;
             let pm =
               if extend then begin
                 let pm' =
                   Partial_match.extend pm ~id:!id ~server:1
                     ~binding:(Some (root + 1)) ~weight:0.5 ~server_max:1.0
                 in
                 incr id;
                 pm'
               end
               else pm
             in
             Topk_set.consider t ~complete:extend pm;
             considered := Array.append !considered [| pm |]
           end);
          if Topk_set.threshold t <> oracle_threshold t then ok := false)
        steps;
      !ok)

(* should_prune must stay consistent with the reported threshold at
   every point: never prune a match that can strictly beat it, always
   prune one that cannot even reach it. *)
let prop_should_prune_consistent =
  QCheck2.Test.make ~name:"should_prune agrees with threshold" ~count:200
    QCheck2.Gen.(pair (int_range 1 4) gen_steps)
    (fun (k, steps) ->
      let t = Topk_set.create ~k ~admit_partial:true in
      let id = ref 0 in
      List.for_all
        (fun { root; weight; extend = _; code = _ } ->
          let pm =
            Partial_match.create_root ~plan_servers:2 ~id:!id ~root ~weight
              ~max_rest:1.0
          in
          incr id;
          let theta = Topk_set.threshold t in
          let pruned = Topk_set.should_prune t pm in
          let agreed =
            if pm.max_possible > theta then not pruned
            else if pm.max_possible < theta then pruned
            else true
          in
          Topk_set.consider t ~complete:false pm;
          agreed)
        steps)

(* --- popcount ------------------------------------------------------- *)

let naive_popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let prop_popcount =
  QCheck2.Test.make ~name:"Bits.popcount = naive bit loop" ~count:500
    QCheck2.Gen.(int_bound max_int)
    (fun m -> Bits.popcount m = naive_popcount m)

let test_popcount_edges () =
  Alcotest.(check int) "zero" 0 (Bits.popcount 0);
  Alcotest.(check int) "one" 1 (Bits.popcount 1);
  Alcotest.(check int) "byte" 8 (Bits.popcount 0xff);
  Alcotest.(check int) "max_int" 62 (Bits.popcount max_int);
  Alcotest.check_raises "negative" (Invalid_argument
    "Bits.popcount: negative mask") (fun () -> ignore (Bits.popcount (-1)))

(* --- cache unit behaviour ------------------------------------------ *)

let test_hit_miss_counters () =
  let doc = Fixtures.books_doc in
  let idx = Index.build doc in
  let pat = Fixtures.parse Fixtures.q2d in
  let plan = Run.compile idx pat in
  let cache = Candidate_cache.create () in
  let stats = Stats.create () in
  let root = plan.Plan.roots.(0) in
  let a = Candidate_cache.find cache plan stats ~server:1 ~root in
  let b = Candidate_cache.find cache plan stats ~server:1 ~root in
  Alcotest.(check bool) "same array on hit" true (a == b);
  Alcotest.(check int) "one miss" 1 stats.cache_misses;
  Alcotest.(check int) "one hit" 1 stats.cache_hits;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Stats.cache_hit_rate stats);
  Alcotest.(check int) "cardinality" 1 (Candidate_cache.cardinality cache);
  ignore (Candidate_cache.find cache plan stats ~server:1 ~root:(root + 1));
  Alcotest.(check int) "distinct root is a new key" 2
    (Candidate_cache.cardinality cache)

let suite =
  [
    Alcotest.test_case "hit/miss counters" `Quick test_hit_miss_counters;
    Alcotest.test_case "popcount edge cases" `Quick test_popcount_edges;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_cached_process_equals_oracle;
        prop_warm_cache_all_hits;
        prop_engine_cache_invisible;
        prop_threshold_equals_fold_oracle;
        prop_should_prune_consistent;
        prop_popcount;
      ]
