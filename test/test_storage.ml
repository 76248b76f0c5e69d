(* The .wpidx on-disk index: differential equivalence against the
   in-memory backend, and rejection of truncated or corrupt files.

   The tentpole property is bit-for-bit interchangeability: a document
   written to a .wpidx file and memory-mapped back must give every
   query the same answers AND the same visit/comparison counters as
   the in-memory index it was compacted from — the engines cannot tell
   the backends apart. *)

module Doc = Wp_xml.Doc
module Index = Wp_xml.Index
module If = Wp_storage.Index_file

let queries =
  [
    "//item[./description/parlist]";
    "//item[./mailbox/mail/text]";
    "//item[./name and ./incategory]";
    "//item[./description/parlist and ./mailbox/mail/text]";
    "//keyword";
  ]

let temp_wpidx () = Filename.temp_file "wp-storage-test" ".wpidx"

let with_written doc f =
  let path = temp_wpidx () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let (_ : int) = If.write path doc in
      f path)

let open_ok path =
  match If.open_index path with
  | Ok h -> h
  | Error e -> Alcotest.failf "open_index: %s" (If.error_message e)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* The version-2 header (see the Index_file docs): the 8-byte magic
   block, five u64 fields (nodes, tags, value bytes, file size,
   checksum), then one 16-byte (offset, length) slot per section. *)
let known_sections = 11
let file_size_slot = 8 + (8 * 3)
let checksum_slot = 8 + (8 * 4)
let table_offset = 8 + (8 * 5)
let header_bytes = table_offset + (16 * known_sections)

let gen_doc seed =
  Wp_xmark.Generator.generate_doc ~seed ~target_bytes:60_000 ()

(* --- structural round-trip --- *)

let check_doc_equal ~ctx (a : Doc.t) (b : Doc.t) =
  let n = Doc.size a in
  Alcotest.(check int) (ctx ^ " size") n (Doc.size b);
  for i = 0 to n - 1 do
    let c msg = Printf.sprintf "%s node %d %s" ctx i msg in
    Alcotest.(check string) (c "tag") (Doc.tag a i) (Doc.tag b i);
    Alcotest.(check (option string)) (c "value") (Doc.value a i) (Doc.value b i);
    Alcotest.(check (option int)) (c "parent") (Doc.parent a i) (Doc.parent b i);
    Alcotest.(check int) (c "subtree_end") (Doc.subtree_end a i)
      (Doc.subtree_end b i);
    Alcotest.(check int) (c "depth") (Doc.depth a i) (Doc.depth b i);
    Alcotest.(check string) (c "dewey")
      (Wp_xml.Dewey.to_string (Doc.dewey a i))
      (Wp_xml.Dewey.to_string (Doc.dewey b i))
  done;
  Alcotest.(check (list string)) (ctx ^ " distinct tags") (Doc.distinct_tags a)
    (Doc.distinct_tags b)

let check_index_equal ~ctx (a : Index.t) (b : Index.t) =
  List.iter
    (fun tag ->
      Alcotest.(check (array int))
        (Printf.sprintf "%s ids(%s)" ctx tag)
        (Fixtures.ids a tag) (Fixtures.ids b tag))
    (Index.wildcard :: Doc.distinct_tags (Index.doc a))

let test_roundtrip_structure () =
  List.iter
    (fun seed ->
      let doc = gen_doc seed in
      let mem_idx = Index.build doc in
      with_written doc (fun path ->
          let h = open_ok path in
          let mapped = If.index h in
          let ctx = Printf.sprintf "seed %d" seed in
          check_doc_equal ~ctx doc (Index.doc mapped);
          check_index_equal ~ctx mem_idx mapped))
    [ 1; 7; 23 ]

(* --- engine-level differential: answers AND counters --- *)

let run_all idx =
  List.map
    (fun q ->
      let pattern = Wp_pattern.Xpath_parser.parse q in
      let plan = Whirlpool.Run.compile idx pattern in
      let r = Whirlpool.Engine.run plan ~k:10 in
      (q, r))
    queries

let test_roundtrip_engine () =
  List.iter
    (fun seed ->
      let doc = gen_doc seed in
      let mem = run_all (Index.build doc) in
      with_written doc (fun path ->
          let h = open_ok path in
          let mapped = run_all (If.index h) in
          List.iter2
            (fun (q, (m : Whirlpool.Engine.result))
                 (_, (p : Whirlpool.Engine.result)) ->
              let c msg = Printf.sprintf "seed %d %s %s" seed q msg in
              Alcotest.(check (list (pair int (float 0.0))))
                (c "answers")
                (List.map
                   (fun (e : Whirlpool.Topk_set.entry) -> (e.root, e.score))
                   m.answers)
                (List.map
                   (fun (e : Whirlpool.Topk_set.entry) -> (e.root, e.score))
                   p.answers);
              Alcotest.(check int) (c "comparisons") m.stats.comparisons
                p.stats.comparisons;
              Alcotest.(check int) (c "server_ops") m.stats.server_ops
                p.stats.server_ops;
              Alcotest.(check int) (c "matches_created")
                m.stats.matches_created p.stats.matches_created;
              Alcotest.(check int) (c "matches_pruned") m.stats.matches_pruned
                p.stats.matches_pruned)
            mem mapped))
    [ 3; 11 ]

(* --- the writer dumps what it is given --- *)

(* Writing a mapped index's document reproduces its file byte for
   byte: the mapped columns are the document's own, and the writer
   derives nothing the document or its index does not already hold. *)
let test_rewrite_mapped () =
  List.iter
    (fun seed ->
      with_written (gen_doc seed) (fun path ->
          let original = read_file path in
          let h = open_ok path in
          let again = temp_wpidx () in
          Fun.protect
            ~finally:(fun () -> Sys.remove again)
            (fun () ->
              let bytes = If.write again (Index.doc (If.index h)) in
              Alcotest.(check int)
                (Printf.sprintf "seed %d size" seed)
                (String.length original) bytes;
              Alcotest.(check bool)
                (Printf.sprintf "seed %d bytes identical" seed)
                true
                (String.equal original (read_file again)))))
    [ 2; 13 ]

(* --- corruption fixtures --- *)

let expect_error ~what path pred =
  match If.open_index path with
  | Ok _ -> Alcotest.failf "%s: opened a corrupt file" what
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s rejected with the right error (%s)" what
           (If.error_message e))
        true (pred e)

let test_corrupt_headers () =
  let doc = gen_doc 9 in
  with_written doc (fun path ->
      let valid = read_file path in
      let mutate f =
        let b = Bytes.of_string valid in
        f b;
        write_file path (Bytes.to_string b)
      in
      (* Bad magic. *)
      mutate (fun b -> Bytes.set b 0 'X');
      expect_error ~what:"bad magic" path (function
        | If.Not_index_file _ -> true
        | _ -> false);
      (* Version skew, from the future and from the past: a version-1
         file (which carried a content-term dictionary) is not read. *)
      mutate (fun b -> Bytes.set b 5 (Char.chr 99));
      expect_error ~what:"version skew" path (function
        | If.Version_skew { found = 99; _ } -> true
        | _ -> false);
      mutate (fun b -> Bytes.set b 5 (Char.chr 1));
      expect_error ~what:"version-1 file" path (function
        | If.Version_skew { found = 1; expected = 2; _ } -> true
        | _ -> false);
      (* Truncations at every section of the layout. *)
      List.iter
        (fun frac ->
          let cut = String.length valid * frac / 100 in
          write_file path (String.sub valid 0 cut);
          expect_error
            ~what:(Printf.sprintf "truncated to %d%%" frac)
            path
            (function If.Truncated _ | If.Corrupt _ -> true
              | If.Not_index_file _ -> cut < String.length If.magic
              | _ -> false))
        [ 0; 1; 10; 50; 99 ];
      (* A flipped byte inside the 64-byte checksummed header region. *)
      mutate (fun b -> Bytes.set b 16 (Char.chr (Char.code (Bytes.get b 16) lxor 0xFF)));
      expect_error ~what:"checksum mismatch" path (function
        | If.Corrupt _ | If.Truncated _ -> true
        | _ -> false);
      (* A section offset pointing past the end of the file. *)
      mutate (fun b ->
          Bytes.set_int64_le b table_offset 0x7FFFFF00L);
      expect_error ~what:"out-of-range section" path (function
        | If.Corrupt _ | If.Truncated _ -> true
        | _ -> false);
      (* Restore for the final sanity check: the pristine bytes open. *)
      write_file path valid;
      let h = open_ok path in
      Alcotest.(check int) "restored file opens" (Doc.size doc)
        (If.info h).If.nodes)

(* Every strict prefix of a valid file, and every single-byte change
   inside its header, must be rejected with a typed [Error] — never
   opened, never another exception.  Column bytes past the header are
   not checksummed, so changes there are out of scope. *)


let books_wpidx = with_written Fixtures.books_doc read_file

let rejects contents =
  let path = temp_wpidx () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path contents;
      Result.is_error (If.open_index path))

let prop_truncation_fails_cleanly =
  QCheck2.Test.make ~name:"truncation fails cleanly" ~count:200
    QCheck2.Gen.(int_bound (String.length books_wpidx - 1))
    (fun cut -> rejects (String.sub books_wpidx 0 cut))

let prop_header_corruption_rejected =
  QCheck2.Test.make ~name:"header corruption rejected" ~count:300
    QCheck2.Gen.(pair (int_bound (header_bytes - 1)) (int_range 1 255))
    (fun (pos, flip) ->
      rejects
        (String.mapi
           (fun i c -> if i = pos then Char.chr (Char.code c lxor flip) else c)
           books_wpidx))

(* --- forward compatibility --- *)

(* FNV-1a 64, mirroring the writer's header checksum (not exported). *)
let fnv64 bytes =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  Bytes.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    bytes;
  !h

(* Rewrite a valid .wpidx as a future writer with [sections] table
   entries would have laid it out: the header grows by one 16-byte slot
   per extra entry (the table stays 8-aligned, so every known section
   shifts by exactly that much), each extra entry points at a dummy
   payload appended past the old end, and the checksum is recomputed
   over the whole grown header. *)
let with_sections ~sections valid =
  let grow = (sections - known_sections) * 16 in
  let new_header = header_bytes + grow in
  let old_size = String.length valid in
  let dummy_len = 8 in
  let extra = max 0 (sections - known_sections) in
  let new_size = old_size + grow + (extra * dummy_len) in
  let b = Bytes.make new_size 'D' in
  Bytes.blit_string valid 0 b 0 table_offset;
  Bytes.set_uint16_le b 6 sections;
  Bytes.set_int64_le b file_size_slot (Int64.of_int new_size);
  for i = 0 to min (known_sections - 1) (sections - 1) do
    let slot = table_offset + (16 * i) in
    Bytes.set_int64_le b slot
      (Int64.add (String.get_int64_le valid slot) (Int64.of_int grow));
    Bytes.set_int64_le b (slot + 8) (String.get_int64_le valid (slot + 8))
  done;
  for e = 0 to extra - 1 do
    let slot = table_offset + (16 * (known_sections + e)) in
    Bytes.set_int64_le b slot (Int64.of_int (old_size + grow + (e * dummy_len)));
    Bytes.set_int64_le b (slot + 8) (Int64.of_int dummy_len)
  done;
  Bytes.blit_string valid header_bytes b new_header (old_size - header_bytes);
  Bytes.set_int64_le b checksum_slot 0L;
  Bytes.set_int64_le b checksum_slot (fnv64 (Bytes.sub b 0 new_header));
  Bytes.to_string b

let test_forward_compat () =
  let doc = gen_doc 11 in
  let mem = run_all (Index.build doc) in
  with_written doc (fun path ->
      let valid = read_file path in
      (* A 12-section file from a future writer opens, skips the entry
         it does not know, and answers every query identically. *)
      write_file path (with_sections ~sections:12 valid);
      let h = open_ok path in
      Alcotest.(check int) "12-section node count" (Doc.size doc)
        (If.info h).If.nodes;
      List.iter2
        (fun (q, (m : Whirlpool.Engine.result))
             (_, (p : Whirlpool.Engine.result)) ->
          Alcotest.(check (list (pair int (float 0.0))))
            (q ^ " answers via 12-section file")
            (List.map
               (fun (e : Whirlpool.Topk_set.entry) -> (e.root, e.score))
               m.answers)
            (List.map
               (fun (e : Whirlpool.Topk_set.entry) -> (e.root, e.score))
               p.answers))
        mem
        (run_all (If.index h));
      (* Fewer sections than this build requires cannot be valid. *)
      write_file path (with_sections ~sections:10 valid);
      expect_error ~what:"10-section table" path (function
        | If.Corrupt _ | If.Truncated _ -> true
        | _ -> false);
      (* An unknown entry pointing past the end of the file is still
         corruption, not something to silently ignore. *)
      let grown = Bytes.of_string (with_sections ~sections:12 valid) in
      Bytes.set_int64_le grown (table_offset + (16 * known_sections)) 0x7FFFFF00L;
      Bytes.set_int64_le grown checksum_slot 0L;
      Bytes.set_int64_le grown checksum_slot
        (fnv64 (Bytes.sub grown 0 (header_bytes + 16)));
      write_file path (Bytes.to_string grown);
      expect_error ~what:"out-of-range unknown section" path (function
        | If.Corrupt _ | If.Truncated _ -> true
        | _ -> false))

let suite =
  [
    Alcotest.test_case "structure round-trip" `Quick test_roundtrip_structure;
    Alcotest.test_case "engine differential (answers + counters)" `Quick
      test_roundtrip_engine;
    Alcotest.test_case "re-writing a mapped document reproduces its file"
      `Quick test_rewrite_mapped;
    Alcotest.test_case "corrupt files rejected" `Quick test_corrupt_headers;
    QCheck_alcotest.to_alcotest prop_truncation_fails_cleanly;
    QCheck_alcotest.to_alcotest prop_header_corruption_rejected;
    Alcotest.test_case "unknown sections skipped (forward compat)" `Quick
      test_forward_compat;
  ]
