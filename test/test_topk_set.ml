open Whirlpool

let pm ~id ~root ~score ~max_possible =
  let p =
    Partial_match.create_root ~plan_servers:2 ~id ~root ~weight:score
      ~max_rest:(max_possible -. score)
  in
  p

let test_fill_and_threshold () =
  let t = Topk_set.create ~k:2 ~admit_partial:true in
  Alcotest.(check bool) "empty threshold" true
    (Topk_set.threshold t = neg_infinity);
  Topk_set.consider t ~complete:false (pm ~id:1 ~root:10 ~score:0.5 ~max_possible:1.0);
  Alcotest.(check bool) "below k, threshold stays -inf" true
    (Topk_set.threshold t = neg_infinity);
  Topk_set.consider t ~complete:false (pm ~id:2 ~root:20 ~score:0.8 ~max_possible:1.0);
  Alcotest.(check (float 1e-9)) "kth score" 0.5 (Topk_set.threshold t);
  Alcotest.(check int) "cardinality" 2 (Topk_set.cardinality t)

let test_replacement () =
  let t = Topk_set.create ~k:2 ~admit_partial:true in
  Topk_set.consider t ~complete:false (pm ~id:1 ~root:10 ~score:0.5 ~max_possible:1.0);
  Topk_set.consider t ~complete:false (pm ~id:2 ~root:20 ~score:0.8 ~max_possible:1.0);
  (* Higher score evicts the min entry. *)
  Topk_set.consider t ~complete:false (pm ~id:3 ~root:30 ~score:0.9 ~max_possible:1.0);
  let roots = List.map (fun (e : Topk_set.entry) -> e.root) (Topk_set.entries t) in
  Alcotest.(check (list int)) "evicted the weakest" [ 30; 20 ] roots;
  (* Lower score is ignored. *)
  Topk_set.consider t ~complete:false (pm ~id:4 ~root:40 ~score:0.1 ~max_possible:1.0);
  Alcotest.(check int) "still two entries" 2 (Topk_set.cardinality t)

let test_per_root_dedup () =
  let t = Topk_set.create ~k:3 ~admit_partial:true in
  Topk_set.consider t ~complete:false (pm ~id:1 ~root:10 ~score:0.5 ~max_possible:1.0);
  Topk_set.consider t ~complete:false (pm ~id:2 ~root:10 ~score:0.7 ~max_possible:1.0);
  Alcotest.(check int) "one entry per root" 1 (Topk_set.cardinality t);
  (match Topk_set.entries t with
  | [ e ] -> Alcotest.(check (float 1e-9)) "kept the best score" 0.7 e.score
  | _ -> Alcotest.fail "expected one entry");
  (* A weaker match for the same root does not downgrade it. *)
  Topk_set.consider t ~complete:false (pm ~id:3 ~root:10 ~score:0.2 ~max_possible:1.0);
  match Topk_set.entries t with
  | [ e ] -> Alcotest.(check (float 1e-9)) "unchanged" 0.7 e.score
  | _ -> Alcotest.fail "expected one entry"

let test_admit_partial_false () =
  let t = Topk_set.create ~k:2 ~admit_partial:false in
  Topk_set.consider t ~complete:false (pm ~id:1 ~root:10 ~score:0.9 ~max_possible:1.0);
  Alcotest.(check int) "partials ignored" 0 (Topk_set.cardinality t);
  Topk_set.consider t ~complete:true (pm ~id:2 ~root:20 ~score:0.4 ~max_possible:0.4);
  Alcotest.(check int) "completes admitted" 1 (Topk_set.cardinality t)

let test_pruning () =
  let t = Topk_set.create ~k:1 ~admit_partial:true in
  Topk_set.consider t ~complete:false (pm ~id:1 ~root:10 ~score:0.8 ~max_possible:0.9);
  Alcotest.(check bool) "hopeless match pruned" true
    (Topk_set.should_prune t (pm ~id:2 ~root:20 ~score:0.1 ~max_possible:0.5));
  Alcotest.(check bool) "promising match kept" false
    (Topk_set.should_prune t (pm ~id:3 ~root:30 ~score:0.1 ~max_possible:1.5));
  (* A tie on max-possible cannot displace another root. *)
  Alcotest.(check bool) "tie pruned" true
    (Topk_set.should_prune t (pm ~id:4 ~root:40 ~score:0.8 ~max_possible:0.8));
  (* ... but the entry owner itself is not pruned. *)
  Alcotest.(check bool) "own entry survives" false
    (Topk_set.should_prune t (pm ~id:1 ~root:10 ~score:0.8 ~max_possible:0.9))

let test_entries_sorted () =
  let t = Topk_set.create ~k:5 ~admit_partial:true in
  List.iter
    (fun (id, root, score) ->
      Topk_set.consider t ~complete:false (pm ~id ~root ~score ~max_possible:score))
    [ (1, 10, 0.3); (2, 20, 0.9); (3, 30, 0.6); (4, 40, 0.9) ];
  let entries = Topk_set.entries t in
  Alcotest.(check (list int)) "sorted by score desc, ties by root"
    [ 20; 40; 30; 10 ]
    (List.map (fun (e : Topk_set.entry) -> e.root) entries)

let test_invalid_k () =
  Alcotest.check_raises "k must be positive"
    (Invalid_argument "Topk_set.create: k must be positive") (fun () ->
      ignore (Topk_set.create ~k:0 ~admit_partial:true))

(* The threshold never decreases under any sequence of considers. *)
let prop_threshold_monotone =
  QCheck2.Test.make ~name:"threshold is monotone" ~count:200
    QCheck2.Gen.(list (pair (int_range 1 20) (float_range 0.0 1.0)))
    (fun events ->
      let t = Topk_set.create ~k:3 ~admit_partial:true in
      let last = ref neg_infinity in
      List.for_all
        (fun (root, score) ->
          Topk_set.consider t ~complete:false
            (pm ~id:root ~root ~score ~max_possible:(score +. 0.1));
          let th = Topk_set.threshold t in
          let ok = th >= !last in
          last := th;
          ok)
        events)

(* Certification reads the next certifiable entry off [floor] and
   [best_since_mark] instead of sorting; a retract can leave [floor]
   stale (too high), which may cost a sort but never an emission. *)
let test_certify_gate () =
  let t = Topk_set.create ~k:4 ~admit_partial:true in
  let out = ref [] in
  let c = Certify.create ~emit:(fun (e : Topk_set.entry) -> out := e.root :: !out) in
  let add id root score =
    let m = pm ~id ~root ~score ~max_possible:score in
    Topk_set.consider t ~complete:false m;
    m
  in
  let emitted msg expected =
    Alcotest.(check (list int)) msg expected (List.rev !out)
  in
  ignore (add 1 10 0.9 : Partial_match.t);
  let m20 = add 2 20 0.5 in
  Certify.flush c t ~bound:0.95;
  emitted "nothing beats the bound" [];
  Certify.flush c t ~bound:0.6;
  emitted "the best entry certifies" [ 10 ];
  ignore (add 3 30 0.55 : Partial_match.t);
  ignore (add 4 40 0.45 : Partial_match.t);
  Certify.flush c t ~bound:0.52;
  emitted "a later arrival certifies" [ 10; 30 ];
  Topk_set.retract t m20;
  Certify.flush c t ~bound:0.48;
  emitted "a retracted floor emits nothing" [ 10; 30 ];
  Certify.flush c t ~bound:0.4;
  emitted "the next entry still certifies" [ 10; 30; 40 ];
  Alcotest.(check int) "streamed" 3 (Certify.streamed c)

(* Differential: the gated certification emits exactly what sorting the
   set at every call would, at the same calls — for any sequence of
   arrivals at or below a non-increasing bound, some retracted. *)
let prop_certify_matches_sorting =
  QCheck2.Test.make ~name:"certify = sort at every call" ~count:300
    QCheck2.Gen.(
      pair (int_range 1 5)
        (list
           (quad (int_range 1 12) (float_range 0.0 1.0) (float_range 0.5 1.0)
              bool)))
    (fun (k, events) ->
      let t = Topk_set.create ~k ~admit_partial:true in
      let gated = ref [] and sorted = ref [] and streamed = ref 0 in
      let c = Certify.create ~emit:(fun e -> gated := e :: !gated) in
      let sort_and_take bound =
        List.iteri
          (fun i (e : Topk_set.entry) ->
            if i >= !streamed && e.score > bound then begin
              incr streamed;
              sorted := e :: !sorted
            end)
          (Topk_set.entries t)
      in
      let bound = ref 1.0 and id = ref 0 in
      List.for_all
        (fun (root, u, shrink, retract) ->
          incr id;
          let score = u *. !bound in
          let m = pm ~id:!id ~root ~score ~max_possible:score in
          Topk_set.consider t ~complete:false m;
          if retract then Topk_set.retract t m;
          bound := !bound *. shrink;
          Certify.flush c t ~bound:!bound;
          sort_and_take !bound;
          !gated = !sorted)
        events)

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

let suite =
  [
    Alcotest.test_case "fill and threshold" `Quick test_fill_and_threshold;
    Alcotest.test_case "replacement" `Quick test_replacement;
    Alcotest.test_case "per-root dedup" `Quick test_per_root_dedup;
    Alcotest.test_case "admit_partial=false" `Quick test_admit_partial_false;
    Alcotest.test_case "pruning" `Quick test_pruning;
    Alcotest.test_case "entries sorted" `Quick test_entries_sorted;
    Alcotest.test_case "invalid k" `Quick test_invalid_k;
    Alcotest.test_case "certify gate" `Quick test_certify_gate;
    QCheck_alcotest.to_alcotest prop_threshold_monotone;
    QCheck_alcotest.to_alcotest prop_certify_matches_sorting;
    QCheck_alcotest.to_alcotest prop_threshold_equals_fold_oracle;
    QCheck_alcotest.to_alcotest prop_should_prune_consistent;
  ]
