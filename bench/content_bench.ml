(* Extension: content relaxation (FleXPath-style).

   Item names in the generated corpus are short word sequences, so a
   single-word value predicate has few exact matches but many token
   matches — exactly the situation content relaxation is for.  This
   exhibit compares the strict and content-relaxed runs of the same
   query. *)

let run (scale : Common.scale) =
  Common.header "Extension: content relaxation on value predicates";
  let idx = Common.index_for scale.default_size in
  let doc = Wp_xml.Index.doc idx in
  (* Pick the most frequent first word of item names as the query
     constant, so the exhibit is deterministic but data-driven. *)
  let counts = Hashtbl.create 64 in
  let names = Wp_xml.Index.postings idx "name" in
  for i = 0 to Wp_xml.Index.postings_length names - 1 do
    let n = Wp_xml.Index.posting names i in
    let is_item_name =
      match Wp_xml.Doc.parent doc n with
      | Some p -> String.equal (Wp_xml.Doc.tag doc p) "item"
      | None -> false
    in
    match (is_item_name, Wp_xml.Doc.value doc n) with
    | true, Some v -> (
        match String.split_on_char ' ' v with
        | w :: _ :: _ ->
            (* multi-word names only: these are token, not exact,
               matches *)
            Hashtbl.replace counts w
              (1 + Option.value (Hashtbl.find_opt counts w) ~default:0)
        | _ -> ())
    | _ -> ()
  done;
  let word, _ =
    Hashtbl.fold
      (fun w c ((_, best) as acc) -> if c > best then (w, c) else acc)
      counts ("", 0)
  in
  let q = Printf.sprintf "//item[./name = '%s' and ./incategory]" word in
  Printf.printf "query: %s\n\n" q;
  let pattern = Wp_pattern.Xpath_parser.parse q in
  let k = 4 * scale.default_k in
  let widths = [ 26; 10; 14; 14; 12 ] in
  Common.print_row widths
    [ "config"; "answers"; "name bound"; "best score"; "ops" ];
  List.iter
    (fun (name, config) ->
      let plan =
        Whirlpool.Plan.compile ~normalization:Wp_score.Score_table.Raw idx
          config pattern
      in
      let r = Whirlpool.Engine.run plan ~k in
      let bound =
        List.length
          (List.filter
             (fun (e : Whirlpool.Topk_set.entry) -> e.bindings.(1) >= 0)
             r.answers)
      in
      let best =
        match r.answers with e :: _ -> e.score | [] -> 0.0
      in
      Common.print_row widths
        [
          name;
          Common.fint (List.length r.answers);
          Common.fint bound;
          Printf.sprintf "%.4f" best;
          Common.fint r.stats.server_ops;
        ])
    [
      ("strict values", Wp_relax.Relaxation.all);
      ("content relaxation", Wp_relax.Relaxation.with_content);
    ];
  Printf.printf
    "\nUnder content relaxation, names containing the query word as a\n\
     token bind (at the relaxed weight) instead of being deleted.\n"
