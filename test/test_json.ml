open Wp_json

let to_s = Json.to_string

let test_scalars () =
  Alcotest.(check string) "null" "null" (to_s Json.Null);
  Alcotest.(check string) "true" "true" (to_s (Json.Bool true));
  Alcotest.(check string) "int" "42" (to_s (Json.Int 42));
  Alcotest.(check string) "negative" "-7" (to_s (Json.Int (-7)));
  Alcotest.(check string) "integral float" "2.0" (to_s (Json.Float 2.0));
  Alcotest.(check string) "nan is null" "null" (to_s (Json.Float Float.nan));
  Alcotest.(check string) "infinity is null" "null" (to_s (Json.Float infinity))

let test_float_roundtrip () =
  List.iter
    (fun f ->
      let s = to_s (Json.Float f) in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "roundtrip %s" s)
        f (float_of_string s))
    [ 0.1; 1.5; -3.25; 1e-9; 123456.789; 0.30000000000000004 ]

(* The encoder before it tried three precisions: the shortest of 1 to
   17 significant digits that round-trips.  Kept as the reference the
   three-precision encoder must agree with on normal floats. *)
let shortest_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let rec shorten p =
      if p >= 17 then Printf.sprintf "%.17g" f
      else
        let c = Printf.sprintf "%.*g" p f in
        if float_of_string c = f then c else shorten (p + 1)
    in
    shorten 1

(* Finite floats from every corner the encoder meets: raw bit patterns
   (subnormals included), scores in [0, 50), neighbours of powers of
   ten, and signed zeros. *)
let gen_finite_float =
  let open QCheck2.Gen in
  let of_parts ~exponent mantissa =
    Int64.float_of_bits
      (Int64.logor
         (Int64.shift_left (Int64.of_int exponent) 52)
         (Int64.logand mantissa 0xF_FFFF_FFFF_FFFFL))
  in
  (* Any sign, any exponent below 0x7FF (so finite), any mantissa. *)
  let bits =
    map3
      (fun neg exponent mantissa ->
        of_parts ~exponent:((if neg then 0x800 else 0) + exponent) mantissa)
      bool (int_bound 0x7FE) int64
  in
  let subnormal = map (of_parts ~exponent:0) int64 in
  let near_power =
    map3
      (fun e step neg ->
        let p = 10. ** float_of_int e in
        let f = match step with 0 -> Float.pred p | 1 -> p | _ -> Float.succ p in
        if neg then -.f else f)
      (int_range (-307) 308) (int_bound 2) bool
  in
  let zero = oneofl [ 0.0; -0.0 ] in
  oneof [ bits; subnormal; float_range 0. 50.; near_power; zero ]

let print_float f = Printf.sprintf "%h" f

let prop_float_bit_exact =
  QCheck2.Test.make ~name:"float encoding round-trips bit-exactly"
    ~count:20_000 ~print:print_float gen_finite_float (fun f ->
      Int64.equal
        (Int64.bits_of_float (float_of_string (to_s (Json.Float f))))
        (Int64.bits_of_float f))

let prop_float_shortest =
  QCheck2.Test.make ~name:"float encoding matches the shortest form"
    ~count:20_000 ~print:print_float gen_finite_float (fun f ->
      Float.classify_float f <> FP_normal
      || String.equal (to_s (Json.Float f)) (shortest_repr f))

let test_string_escaping () =
  Alcotest.(check string) "plain" "\"hello\"" (to_s (Json.String "hello"));
  Alcotest.(check string) "quotes" "\"a\\\"b\"" (to_s (Json.String "a\"b"));
  Alcotest.(check string) "backslash" "\"a\\\\b\"" (to_s (Json.String "a\\b"));
  Alcotest.(check string) "newline" "\"a\\nb\"" (to_s (Json.String "a\nb"));
  Alcotest.(check string) "control" "\"\\u0001\"" (to_s (Json.String "\x01"))

let test_compound () =
  Alcotest.(check string) "empty list" "[]" (to_s (Json.List []));
  Alcotest.(check string) "empty object" "{}" (to_s (Json.Obj []));
  Alcotest.(check string) "list" "[1,2,3]"
    (to_s (Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]));
  Alcotest.(check string) "object" "{\"a\":1,\"b\":[true,null]}"
    (to_s
       (Json.Obj
          [
            ("a", Json.Int 1);
            ("b", Json.List [ Json.Bool true; Json.Null ]);
          ]))

let test_pp_is_reparseable_shape () =
  (* The indented form must contain the same tokens as the compact one
     modulo whitespace. *)
  let v =
    Json.Obj
      [ ("xs", Json.List [ Json.Int 1; Json.Float 0.5 ]); ("s", Json.String "t") ]
  in
  let strip s =
    String.concat ""
      (String.split_on_char '\n'
         (String.concat "" (String.split_on_char ' ' s)))
  in
  Alcotest.(check string) "same tokens" (strip (to_s v))
    (strip (Format.asprintf "%a" Json.pp v))

let test_parse_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool false;
      Json.Int (-42);
      Json.Float 0.125;
      Json.String "a\"b\\c\nd\x01";
      Json.List [ Json.Int 1; Json.List []; Json.Obj [] ];
      Json.Obj
        [
          ("wall_ns", Json.Int 123456789);
          ("hit_rate", Json.Float 0.75);
          ("nested", Json.Obj [ ("xs", Json.List [ Json.Bool true; Json.Null ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = to_s v in
      (match Json.of_string s with
      | Ok v' -> Alcotest.(check bool) ("compact " ^ s) true (v = v')
      | Error m -> Alcotest.failf "compact %s: %s" s m);
      match Json.of_string (Format.asprintf "%a" Json.pp v) with
      | Ok v' -> Alcotest.(check bool) ("pretty " ^ s) true (v = v')
      | Error m -> Alcotest.failf "pretty %s: %s" s m)
    cases

let test_parse_details () =
  Alcotest.(check bool) "unicode escape" true
    (Json.of_string "\"\\u00e9\\u0041\"" = Ok (Json.String "\xc3\xa9A"));
  Alcotest.(check bool) "ws tolerated" true
    (Json.of_string " { \"a\" : [ 1 , 2 ] } "
    = Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]));
  Alcotest.(check bool) "big integer falls back to float" true
    (Json.of_string "123456789012345678901234567890"
    = Ok (Json.Float 1.2345678901234568e+29));
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid input %S" bad)
    [ ""; "tru"; "[1,]"; "{\"a\":}"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_member () =
  let v = Json.Obj [ ("a", Json.Int 1) ] in
  Alcotest.(check bool) "present" true (Json.member "a" v = Some (Json.Int 1));
  Alcotest.(check bool) "absent" true (Json.member "b" v = None);
  Alcotest.(check bool) "non-object" true (Json.member "a" Json.Null = None)

let test_answer_json () =
  let plan =
    Whirlpool.Run.compile ~normalization:Wp_score.Score_table.Raw
      Fixtures.books_index
      (Fixtures.parse Fixtures.q2a)
  in
  let r = Whirlpool.Engine.run plan ~k:3 in
  let json = Whirlpool.Answer.result_to_json plan r in
  let s = Json.to_string json in
  Alcotest.(check bool) "mentions answers" true
    (Test_stats.contains ~needle:"\"answers\":" s);
  Alcotest.(check bool) "mentions exactness" true
    (Test_stats.contains ~needle:"\"exactness\":\"relaxed\"" s);
  Alcotest.(check bool) "mentions stats" true
    (Test_stats.contains ~needle:"\"server_ops\":" s)

(* Any byte string — control characters, quotes, backslashes, raw
   high bytes — must survive escape + reparse unchanged. *)
let string_roundtrip_prop =
  QCheck2.Test.make ~name:"string escape/parse round-trip" ~count:1000
    QCheck2.Gen.(string_size ~gen:char (0 -- 60))
    (fun s ->
      match Json.of_string (to_s (Json.String s)) with
      | Ok (Json.String s') -> String.equal s s'
      | Ok _ | Error _ -> false)

let test_string_roundtrip_corners () =
  List.iter
    (fun s ->
      match Json.of_string (to_s (Json.String s)) with
      | Ok (Json.String s') ->
          Alcotest.(check string) (String.escaped s) s s'
      | Ok _ -> Alcotest.failf "%S reparsed as a non-string" s
      | Error m -> Alcotest.failf "%S does not reparse: %s" s m)
    [
      "";
      "\x00\x01\x1f";
      "quote\"back\\slash";
      "tab\tnl\ncr\r";
      "\xc3\xa9";  (* é, already UTF-8 *)
      String.init 32 Char.chr;
    ]

let test_reject_trailing_garbage () =
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted trailing garbage %S" bad)
    [ "1 x"; "{} {}"; "[1] 2"; "\"a\" \"b\""; "null,"; "true false" ]

let test_reject_truncated_escapes () =
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted truncated escape %S" bad)
    [ "\"\\"; "\"\\u\""; "\"\\u00\""; "\"\\u12g4\""; "\"\\x41\""; "\"\\" ]

let suite =
  [
    Alcotest.test_case "scalars" `Quick test_scalars;
    Alcotest.test_case "float roundtrip" `Quick test_float_roundtrip;
    QCheck_alcotest.to_alcotest prop_float_bit_exact;
    QCheck_alcotest.to_alcotest prop_float_shortest;
    Alcotest.test_case "string escaping" `Quick test_string_escaping;
    Alcotest.test_case "compound" `Quick test_compound;
    Alcotest.test_case "pp shape" `Quick test_pp_is_reparseable_shape;
    Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
    Alcotest.test_case "parse details" `Quick test_parse_details;
    Alcotest.test_case "member" `Quick test_member;
    Alcotest.test_case "answer json" `Quick test_answer_json;
    QCheck_alcotest.to_alcotest string_roundtrip_prop;
    Alcotest.test_case "string roundtrip corners" `Quick
      test_string_roundtrip_corners;
    Alcotest.test_case "reject trailing garbage" `Quick
      test_reject_trailing_garbage;
    Alcotest.test_case "reject truncated escapes" `Quick
      test_reject_truncated_escapes;
  ]
