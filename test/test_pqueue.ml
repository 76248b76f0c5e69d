open Whirlpool

let test_basic () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "fresh is empty" true (Pqueue.is_empty q);
  Pqueue.push q 1.0 "a";
  Pqueue.push q 3.0 "b";
  Pqueue.push q 2.0 "c";
  Alcotest.(check int) "length" 3 (Pqueue.length q);
  Alcotest.(check (option string)) "max first" (Some "b") (Pqueue.pop q);
  Alcotest.(check (option string)) "then 2.0" (Some "c") (Pqueue.pop q);
  Alcotest.(check (option string)) "then 1.0" (Some "a") (Pqueue.pop q);
  Alcotest.(check (option string)) "empty pops None" None (Pqueue.pop q)

let test_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun x -> Pqueue.push q 1.0 x) [ "first"; "second"; "third" ];
  Alcotest.(check (list string)) "ties pop in insertion order"
    [ "first"; "second"; "third" ] (Pqueue.drain q)

let test_pop_with_priority () =
  let q = Pqueue.create () in
  Pqueue.push q 0.5 42;
  Alcotest.(check (float 0.0)) "peek" 0.5 (Pqueue.max_priority q);
  (match Pqueue.pop_with_priority q with
  | Some (p, v) ->
      Alcotest.(check int) "value" 42 v;
      Alcotest.(check bool) "priority" true (Float.abs (p -. 0.5) < 1e-12)
  | None -> Alcotest.fail "expected an element");
  Alcotest.(check bool) "peek on empty" true
    (Pqueue.max_priority q = Float.neg_infinity)

let test_clear () =
  let q = Pqueue.create () in
  Pqueue.push q 1.0 1;
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q)

let test_interleaved () =
  let q = Pqueue.create () in
  Pqueue.push q 5.0 5;
  Pqueue.push q 1.0 1;
  Alcotest.(check (option int)) "pop max" (Some 5) (Pqueue.pop q);
  Pqueue.push q 3.0 3;
  Pqueue.push q 9.0 9;
  Alcotest.(check (option int)) "new max" (Some 9) (Pqueue.pop q);
  Alcotest.(check (option int)) "then 3" (Some 3) (Pqueue.pop q);
  Alcotest.(check (option int)) "then 1" (Some 1) (Pqueue.pop q)

let prop_sorted_drain =
  QCheck2.Test.make ~name:"drain is sorted by priority desc" ~count:300
    QCheck2.Gen.(list (float_range (-100.) 100.))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iteri (fun i p -> Pqueue.push q p i) priorities;
      let order = Pqueue.drain q in
      let prios = List.map (List.nth priorities) order in
      let rec sorted = function
        | [] | [ _ ] -> true
        | a :: (b :: _ as rest) -> a >= b && sorted rest
      in
      sorted prios && List.length order = List.length priorities)

let prop_matches_stdlib_sort =
  QCheck2.Test.make ~name:"agrees with a stable sort" ~count:200
    QCheck2.Gen.(list (int_bound 5))
    (fun xs ->
      let q = Pqueue.create () in
      List.iteri (fun i x -> Pqueue.push q (float_of_int x) (x, i)) xs;
      let expected =
        List.stable_sort
          (fun (a, i) (b, j) ->
            match compare b a with 0 -> compare i j | c -> c)
          (List.mapi (fun i x -> (x, i)) xs)
      in
      Pqueue.drain q = expected)

(* [pop] hands back the top value in a fresh [Some] and nothing else:
   at most 2 minor words per pop (the option block) over 10,000 pops,
   which drain in the queue's order (priority, then tie key, both
   descending, then insertion). *)
let test_pop_allocation () =
  let n = 10_000 in
  let prio i = float_of_int ((i * 7919) mod 101)
  and tie i = float_of_int (i mod 3) in
  let q = Pqueue.create () in
  for i = 0 to n - 1 do
    Pqueue.push ~tie:(tie i) q (prio i) i
  done;
  let order = Array.make n (-1) in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    match Pqueue.pop q with Some v -> order.(i) <- v | None -> ()
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over %d pops" words n)
    true
    (words <= float_of_int (2 * n));
  let expected = Array.init n Fun.id in
  Array.stable_sort
    (fun a b ->
      match Float.compare (prio b) (prio a) with
      | 0 -> Float.compare (tie b) (tie a)
      | c -> c)
    expected;
  Alcotest.(check (array int)) "drain order unchanged" expected order

let suite =
  [
    Alcotest.test_case "basic" `Quick test_basic;
    Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
    Alcotest.test_case "pop_with_priority" `Quick test_pop_with_priority;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "interleaved" `Quick test_interleaved;
    Alcotest.test_case "pop allocates only its option" `Quick
      test_pop_allocation;
    QCheck_alcotest.to_alcotest prop_sorted_drain;
    QCheck_alcotest.to_alcotest prop_matches_stdlib_sort;
  ]
