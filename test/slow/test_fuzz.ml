(* Fuzzing the two parsers: arbitrary inputs must either succeed or
   raise the parser's own Error — never any other exception, never a
   hang.  Mutated well-formed documents stress the error paths most. *)

let well_behaved_xml input =
  match Wp_xml.Parser.parse_string input with
  | _ -> true
  | exception Wp_xml.Parser.Error _ -> true

let well_behaved_xpath input =
  match Wp_pattern.Xpath_parser.parse input with
  | _ -> true
  | exception Wp_pattern.Xpath_parser.Error _ -> true

let gen_noise =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_bound 60))

(* Mutations of a valid document: random byte substitutions, deletions
   and duplications. *)
let gen_mutated =
  let open QCheck2.Gen in
  let base =
    map
      (fun seed ->
        Wp_xml.Printer.tree_to_string
          (Wp_xmark.Generator.item Wp_xmark.Generator.default_profile
             (Wp_xmark.Rng.create seed)))
      (int_bound 1000)
  in
  let mutate (s, pos, kind, c) =
    if String.length s = 0 then s
    else
      let pos = pos mod String.length s in
      match kind mod 3 with
      | 0 ->
          (* substitute *)
          String.mapi (fun i ch -> if i = pos then c else ch) s
      | 1 ->
          (* delete *)
          String.sub s 0 pos
          ^ String.sub s (pos + 1) (String.length s - pos - 1)
      | _ ->
          (* duplicate a slice *)
          let len = min 5 (String.length s - pos) in
          String.sub s 0 pos ^ String.sub s pos len ^ String.sub s pos (String.length s - pos)
  in
  map mutate
    (quad base (int_bound 10_000) (int_bound 2_000)
       (map Char.chr (int_range 32 126)))

let prop_noise_xml =
  QCheck2.Test.make ~name:"xml parser survives noise" ~count:500 gen_noise
    well_behaved_xml

let prop_mutations_xml =
  QCheck2.Test.make ~name:"xml parser survives mutations" ~count:300
    gen_mutated well_behaved_xml

let prop_noise_xpath =
  QCheck2.Test.make ~name:"xpath parser survives noise" ~count:500 gen_noise
    well_behaved_xpath

let gen_mutated_query =
  let open QCheck2.Gen in
  let base =
    oneofl
      [
        Fixtures.q1; Fixtures.q2; Fixtures.q3; Fixtures.q2a; Fixtures.q2c;
      ]
  in
  map
    (fun (s, pos, c) ->
      if String.length s = 0 then s
      else
        let pos = pos mod String.length s in
        String.mapi (fun i ch -> if i = pos then c else ch) s)
    (triple base (int_bound 2_000) (map Char.chr (int_range 32 126)))

let prop_mutated_xpath =
  QCheck2.Test.make ~name:"xpath parser survives mutated queries" ~count:400
    gen_mutated_query well_behaved_xpath

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_noise_xml;
      prop_mutations_xml;
      prop_noise_xpath;
      prop_mutated_xpath;
    ]
