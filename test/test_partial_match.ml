open Whirlpool

let root_pm =
  Partial_match.create_root ~plan_servers:4 ~id:1 ~root:10 ~weight:0.5
    ~max_rest:3.0

let test_create_root () =
  Alcotest.(check int) "root binding" 10 (Partial_match.root_binding root_pm);
  Alcotest.(check bool) "root visited" true (Partial_match.visited root_pm 0);
  Alcotest.(check bool) "others not" false (Partial_match.visited root_pm 1);
  Alcotest.(check (float 1e-9)) "score" 0.5 root_pm.score;
  Alcotest.(check (float 1e-9)) "max possible" 3.5 root_pm.max_possible;
  Alcotest.(check (list int)) "unvisited" [ 1; 2; 3 ]
    (Partial_match.unvisited_servers root_pm ~n_servers:4)

let test_extend_bound () =
  let ext =
    Partial_match.extend root_pm ~id:2 ~server:2 ~binding:(Some 42) ~weight:0.7
      ~server_max:1.0
  in
  Alcotest.(check (option int)) "binding" (Some 42) (Partial_match.bound ext 2);
  Alcotest.(check bool) "visited" true (Partial_match.visited ext 2);
  Alcotest.(check (float 1e-9)) "score grows" 1.2 ext.score;
  Alcotest.(check (float 1e-9)) "max shrinks by the gap" 3.2 ext.max_possible;
  (* the original is untouched *)
  Alcotest.(check bool) "copy-on-extend" false (Partial_match.visited root_pm 2);
  Alcotest.(check (list int)) "unvisited updated" [ 1; 3 ]
    (Partial_match.unvisited_servers ext ~n_servers:4)

let test_extend_unbound () =
  let ext =
    Partial_match.extend root_pm ~id:3 ~server:1 ~binding:None ~weight:0.0
      ~server_max:1.0
  in
  Alcotest.(check (option int)) "unbound" None (Partial_match.bound ext 1);
  Alcotest.(check bool) "still visited" true (Partial_match.visited ext 1);
  Alcotest.(check (float 1e-9)) "score unchanged" 0.5 ext.score;
  Alcotest.(check (float 1e-9)) "max loses the full weight" 2.5 ext.max_possible

let test_completion () =
  let full_mask = (1 lsl 4) - 1 in
  let pm = ref root_pm in
  Alcotest.(check bool) "not complete" false
    (Partial_match.is_complete !pm ~full_mask);
  List.iteri
    (fun i s ->
      pm :=
        Partial_match.extend !pm ~id:(10 + i) ~server:s ~binding:(Some s)
          ~weight:1.0 ~server_max:1.0)
    [ 1; 2; 3 ];
  Alcotest.(check bool) "complete after all servers" true
    (Partial_match.is_complete !pm ~full_mask);
  Alcotest.(check (float 1e-9)) "score = max at completion" !pm.score
    !pm.max_possible

let test_score_monotonicity () =
  (* max_possible never increases, score never decreases. *)
  let pm = root_pm in
  let ext =
    Partial_match.extend pm ~id:4 ~server:3 ~binding:(Some 7) ~weight:0.2
      ~server_max:1.0
  in
  Alcotest.(check bool) "score non-decreasing" true (ext.score >= pm.score);
  Alcotest.(check bool) "max non-increasing" true
    (ext.max_possible <= pm.max_possible)

(* --- popcount ------------------------------------------------------- *)

let naive_popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

(* The lowest set bit of a nonzero word, one bit at a time. *)
let naive_lowest_bit x =
  let rec go i = if Int64.logand x (Int64.shift_left 1L i) <> 0L then i else go (i + 1) in
  go 0

(* [Bits.popcount] on non-negative ints, and [Bits.popcount64] and
   [Bits.lowest_bit] on the full 64-bit word: the int's bits, and the
   same bits with the top one set. *)
let prop_popcount =
  QCheck2.Test.make ~name:"Bits.popcount = naive bit loop" ~count:500
    QCheck2.Gen.(int_bound max_int)
    (fun m ->
      let top = Int64.logor (Int64.of_int m) Int64.min_int in
      Bits.popcount m = naive_popcount m
      && Bits.popcount64 (Int64.of_int m) = naive_popcount m
      && Bits.popcount64 top = naive_popcount m + 1
      && Bits.lowest_bit top = naive_lowest_bit top
      && (m = 0 || Bits.lowest_bit (Int64.of_int m) = naive_lowest_bit (Int64.of_int m)))

let test_popcount_edges () =
  Alcotest.(check int) "zero" 0 (Bits.popcount 0);
  Alcotest.(check int) "one" 1 (Bits.popcount 1);
  Alcotest.(check int) "byte" 8 (Bits.popcount 0xff);
  Alcotest.(check int) "max_int" 62 (Bits.popcount max_int);
  Alcotest.(check int) "all 64 bits" 64 (Bits.popcount64 (-1L));
  Alcotest.(check int) "lowest of the top bit" 63 (Bits.lowest_bit Int64.min_int);
  Alcotest.(check int) "lowest of an even word" 3 (Bits.lowest_bit 0x58L);
  Alcotest.check_raises "negative" (Invalid_argument
    "Bits.popcount: negative mask") (fun () -> ignore (Bits.popcount (-1)))

let suite =
  [
    Alcotest.test_case "create_root" `Quick test_create_root;
    Alcotest.test_case "extend bound" `Quick test_extend_bound;
    Alcotest.test_case "extend unbound" `Quick test_extend_unbound;
    Alcotest.test_case "completion" `Quick test_completion;
    Alcotest.test_case "monotonicity" `Quick test_score_monotonicity;
    Alcotest.test_case "popcount edge cases" `Quick test_popcount_edges;
    QCheck_alcotest.to_alcotest prop_popcount;
  ]
