(* Engine event properties, read off an enabled observability
   context whose span cap exceeds the run, so no event is dropped. *)

open Whirlpool
module Obs = Wp_obs.Obs

let idx = Lazy.force Fixtures.xmark_index
let parse = Fixtures.parse

let traced_run ?(k = 5) q =
  let plan = Run.compile idx (parse q) in
  let obs = Obs.create ~max_spans:1_000_000 () in
  let r = Engine.run ~config:Engine.Config.(default |> with_obs obs) plan ~k in
  Alcotest.(check int) "no span dropped" 0 (Obs.dropped_spans obs);
  (plan, r, List.map (fun (e : Obs.stamped) -> e.event) (Obs.events obs))

let test_events_flow () =
  let _, r, events = traced_run Fixtures.q1 in
  let count p = List.length (List.filter p events) in
  Alcotest.(check int) "one Routed per routing decision"
    r.stats.routing_decisions
    (count (function Obs.Routed _ -> true | _ -> false));
  Alcotest.(check int) "one Completed per completion" r.stats.completed
    (count (function Obs.Completed _ -> true | _ -> false));
  Alcotest.(check bool) "extensions traced" true
    (count (function Obs.Extended _ -> true | _ -> false) > 0)

let test_route_follows_pop () =
  (* Every Routed event must be immediately preceded by a Popped of the
     same match. *)
  let _, _, events = traced_run Fixtures.q2 in
  let rec check = function
    | [] | [ _ ] -> ()
    | a :: (b :: _ as rest) ->
        (match b with
        | Obs.Routed { id; _ } -> (
            match a with
            | Obs.Popped { id = id'; _ } ->
                Alcotest.(check int) "routed after its own pop" id' id
            | _ -> Alcotest.fail "Routed not preceded by Popped")
        | _ -> ());
        check rest
  in
  check events

let test_no_activity_after_prune () =
  (* Once a match id is pruned, it never appears again. *)
  let _, _, events = traced_run Fixtures.q2 in
  let pruned = Hashtbl.create 64 in
  List.iter
    (function
      | Obs.Pruned { id } -> Hashtbl.replace pruned id ()
      | Obs.Popped { id; _ }
      | Obs.Routed { id; _ }
      | Obs.Completed { id; _ }
      | Obs.Died { id; _ } ->
          Alcotest.(check bool) "no activity after prune" false
            (Hashtbl.mem pruned id)
      | Obs.Extended { parent; _ } ->
          Alcotest.(check bool) "no extension of a pruned match" false
            (Hashtbl.mem pruned parent))
    events

let test_max_possible_never_grows_along_lineage () =
  (* A child extension's max-possible score never exceeds its parent's. *)
  let _, _, events = traced_run Fixtures.q3 in
  let max_of = Hashtbl.create 256 in
  List.iter
    (fun e ->
      match e with
      | Obs.Popped { id; max_possible; _ } ->
          Hashtbl.replace max_of id max_possible
      | _ -> ())
    events;
  (* Pair Extended with the later Popped of the child, where available. *)
  List.iter
    (fun e ->
      match e with
      | Obs.Extended { parent; id; _ } -> (
          match (Hashtbl.find_opt max_of parent, Hashtbl.find_opt max_of id) with
          | Some p, Some c ->
              Alcotest.(check bool) "monotone max-possible" true (c <= p +. 1e-9)
          | _ -> ())
      | _ -> ())
    events

let test_completed_scores_match_answers () =
  let _, r, events = traced_run ~k:3 Fixtures.q1 in
  let best_completed =
    List.fold_left
      (fun acc e ->
        match e with
        | Obs.Completed { score; _ } -> Float.max acc score
        | _ -> acc)
      neg_infinity events
  in
  match r.answers with
  | top :: _ ->
      Alcotest.(check (float 1e-9)) "top answer = best completed score"
        top.score best_completed
  | [] -> Alcotest.fail "expected answers"

let test_silent_by_default () =
  let plan = Run.compile idx (parse Fixtures.q1) in
  (* No observability context: must simply run. *)
  let r = Engine.run plan ~k:3 in
  Alcotest.(check bool) "answers" true (List.length r.answers > 0)

(* A golden over every constructor: the span-tree JSON's "msg" text
   (profile output, slow-query log) is an interface and must not
   drift. *)
let test_pp_event () =
  let rendered =
    List.map
      (Format.asprintf "%a" Obs.pp_event)
      Obs.
        [
          Popped { id = 7; score = 0.5; max_possible = 1.25 };
          Routed { id = 7; server = 2 };
          Extended { parent = 7; id = 8; server = 2; bound = true };
          Extended { parent = 7; id = 9; server = 3; bound = false };
          Pruned { id = 9 };
          Died { id = 7; server = 2 };
          Completed { id = 8; score = 2.123456 };
        ]
  in
  Alcotest.(check (list string)) "golden rendering"
    [
      "pop #7 score=0.5000 max=1.2500";
      "route #7 -> q2";
      "extend #7 -> #8 at q2 (bound)";
      "extend #7 -> #9 at q3 (deleted)";
      "prune #9";
      "die #7 at q2";
      "complete #8 score=2.1235";
    ]
    rendered

let suite =
  [
    Alcotest.test_case "events flow" `Quick test_events_flow;
    Alcotest.test_case "route follows pop" `Quick test_route_follows_pop;
    Alcotest.test_case "no activity after prune" `Quick test_no_activity_after_prune;
    Alcotest.test_case "max-possible monotone" `Quick test_max_possible_never_grows_along_lineage;
    Alcotest.test_case "completed = answers" `Quick test_completed_scores_match_answers;
    Alcotest.test_case "silent by default" `Quick test_silent_by_default;
    Alcotest.test_case "pp event" `Quick test_pp_event;
  ]
