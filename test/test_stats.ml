open Whirlpool

let test_create_and_reset () =
  let s = Stats.create () in
  Alcotest.(check int) "fresh" 0 s.server_ops;
  s.server_ops <- 5;
  s.comparisons <- 7;
  Stats.reset s;
  Alcotest.(check int) "reset ops" 0 s.server_ops;
  Alcotest.(check int) "reset comparisons" 0 s.comparisons

let test_add () =
  let a = Stats.create () and b = Stats.create () in
  a.server_ops <- 1;
  a.wall_ns <- 100L;
  b.server_ops <- 2;
  b.matches_pruned <- 3;
  b.wall_ns <- 50L;
  Stats.add a b;
  Alcotest.(check int) "ops summed" 3 a.server_ops;
  Alcotest.(check int) "pruned summed" 3 a.matches_pruned;
  Alcotest.(check bool) "wall takes the max" true (a.wall_ns = 100L);
  let c = Stats.create () in
  c.wall_ns <- 500L;
  Stats.add a c;
  Alcotest.(check bool) "wall max again" true (a.wall_ns = 500L)

let test_wall_seconds () =
  let s = Stats.create () in
  s.wall_ns <- 1_500_000_000L;
  Alcotest.(check (float 1e-9)) "ns to s" 1.5 (Stats.wall_seconds s)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_pp () =
  let s = Stats.create () in
  s.server_ops <- 2;
  let str = Format.asprintf "%a" Stats.pp s in
  Alcotest.(check bool) "mentions ops" true (contains ~needle:"ops=2" str)

let test_result_json_finite () =
  (* An engine result's JSON document carries no nan or inf and
     reparses. *)
  let plan =
    Whirlpool.Run.compile Fixtures.books_index (Fixtures.parse Fixtures.q2d)
  in
  let r = Engine.run plan ~k:1 in
  let s = Wp_json.Json.to_string (Answer.result_to_json plan r) in
  Alcotest.(check bool) "mentions the stats" true
    (contains ~needle:"\"wall_seconds\":" s);
  Alcotest.(check bool) "no nan leaks" false (contains ~needle:"nan" s);
  Alcotest.(check bool) "no inf leaks" false (contains ~needle:"inf" s);
  match Wp_json.Json.of_string s with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "emitted JSON does not reparse: %s" m

let suite =
  [
    Alcotest.test_case "create and reset" `Quick test_create_and_reset;
    Alcotest.test_case "add" `Quick test_add;
    Alcotest.test_case "wall seconds" `Quick test_wall_seconds;
    Alcotest.test_case "pp" `Quick test_pp;
    Alcotest.test_case "result json is finite" `Quick test_result_json_finite;
  ]
