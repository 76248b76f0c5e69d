open Whirlpool

let idx = Lazy.force Fixtures.xmark_index
let plan = Run.compile idx (Fixtures.parse Fixtures.q2)

let fresh_pm () =
  match
    Seeds.drain (Seeds.create plan (Stats.create ())) ~next_id:(fun () -> 1)
  with
  | pm :: _ -> pm
  | [] -> Alcotest.fail "expected at least one root candidate"

let test_static_order () =
  let pm = fresh_pm () in
  let order = [| 3; 1; 4; 2; 5 |] in
  Alcotest.(check int) "first in order" 3
    (Strategy.choose_next (Static order) plan ~threshold:neg_infinity pm);
  let pm2 =
    Partial_match.extend pm ~id:2 ~server:3 ~binding:None ~weight:0.0
      ~server_max:1.0
  in
  Alcotest.(check int) "skips visited" 1
    (Strategy.choose_next (Static order) plan ~threshold:neg_infinity pm2)

let test_choose_within_unvisited () =
  let pm = fresh_pm () in
  List.iter
    (fun routing ->
      let s = Strategy.choose_next routing plan ~threshold:neg_infinity pm in
      Alcotest.(check bool) "a real server" true (s >= 1 && s < plan.n_servers);
      Alcotest.(check bool) "unvisited" false (Partial_match.visited pm s))
    [ Strategy.Max_score; Strategy.Min_score; Strategy.Min_alive ]

let test_single_candidate_shortcut () =
  let pm = ref (fresh_pm ()) in
  for s = 1 to plan.n_servers - 2 do
    pm := Partial_match.extend !pm ~id:s ~server:s ~binding:None ~weight:0.0
        ~server_max:1.0
  done;
  (* Only the last server remains. *)
  List.iter
    (fun routing ->
      Alcotest.(check int) "only option" (plan.n_servers - 1)
        (Strategy.choose_next routing plan ~threshold:neg_infinity !pm))
    [ Strategy.Max_score; Strategy.Min_score; Strategy.Min_alive;
      Strategy.Static (Strategy.default_static_order plan) ]

let test_max_vs_min_score_disagree () =
  (* On a plan with sampled statistics the two opposite score strategies
     should generally pick different servers. *)
  let pm = fresh_pm () in
  let hi = Strategy.choose_next Max_score plan ~threshold:neg_infinity pm in
  let lo = Strategy.choose_next Min_score plan ~threshold:neg_infinity pm in
  (* They can only agree if all expected weights tie; check both are valid
     and record the disagreement when weights differ. *)
  Alcotest.(check bool) "valid servers" true (hi >= 1 && lo >= 1);
  if hi = lo then
    Alcotest.(check pass) "weights tie" () ()

let test_min_alive_prefers_pruning () =
  (* With a very high threshold everything will be pruned, so every server
     estimates ~0 alive; with -inf nothing is pruned and the estimate is
     the fan-out. *)
  let pm = fresh_pm () in
  let alive_low =
    Strategy.estimated_alive plan ~threshold:neg_infinity pm ~server:2
  in
  let alive_high =
    Strategy.estimated_alive plan ~threshold:infinity pm ~server:2
  in
  Alcotest.(check bool) "threshold kills estimates" true (alive_high <= alive_low);
  Alcotest.(check (float 1e-9)) "nothing survives +inf" 0.0 alive_high

let test_queue_priorities () =
  let pm = fresh_pm () in
  let p policy server =
    Strategy.priority policy plan ~seq:5 ~server pm
  in
  Alcotest.(check (float 1e-9)) "fifo is -seq" (-5.0) (p Strategy.Fifo None);
  Alcotest.(check (float 1e-9)) "current score" pm.score
    (p Strategy.Current_score None);
  Alcotest.(check (float 1e-9)) "max final" pm.max_possible
    (p Strategy.Max_final_score None);
  let expected_next = pm.score +. Plan.max_weight plan 2 in
  Alcotest.(check (float 1e-9)) "max next (server queue)" expected_next
    (p Strategy.Max_next_score (Some 2));
  (* On the router queue, max-next uses the best unvisited server. *)
  let best =
    List.fold_left
      (fun acc s -> Float.max acc (Plan.max_weight plan s))
      0.0
      (Partial_match.unvisited_servers pm ~n_servers:plan.n_servers)
  in
  Alcotest.(check (float 1e-9)) "max next (router)" (pm.score +. best)
    (p Strategy.Max_next_score None)

let test_permutations () =
  let perms = Strategy.static_permutations plan in
  (* 5 non-root servers for Q2: 120 permutations, all distinct. *)
  Alcotest.(check int) "120 permutations" 120 (List.length perms);
  let keys = List.map (fun a -> String.concat "," (List.map string_of_int (Array.to_list a))) perms in
  Alcotest.(check int) "all distinct" 120
    (List.length (List.sort_uniq String.compare keys))

let test_parsing () =
  Alcotest.(check bool) "min_alive" true
    (Strategy.routing_of_string "min_alive" = Some Strategy.Min_alive);
  Alcotest.(check bool) "queue policy" true
    (Strategy.queue_policy_of_string "max_final_score" = Some Strategy.Max_final_score);
  Alcotest.(check bool) "unknown" true (Strategy.routing_of_string "nope" = None)

let suite =
  [
    Alcotest.test_case "static order" `Quick test_static_order;
    Alcotest.test_case "choose within unvisited" `Quick test_choose_within_unvisited;
    Alcotest.test_case "single candidate" `Quick test_single_candidate_shortcut;
    Alcotest.test_case "max/min score" `Quick test_max_vs_min_score_disagree;
    Alcotest.test_case "min_alive estimates" `Quick test_min_alive_prefers_pruning;
    Alcotest.test_case "queue priorities" `Quick test_queue_priorities;
    Alcotest.test_case "permutations" `Quick test_permutations;
    Alcotest.test_case "parsing" `Quick test_parsing;
  ]
