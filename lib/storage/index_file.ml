module Doc = Wp_xml.Doc
module Index = Wp_xml.Index

let magic = "WPIDX"
let version = 1

(* Every on-disk integer is little-endian.  Counts and in-section
   offsets are u32 slots capped at [max_u32] (2^31 - 1), so a value read
   back through [Int32.to_int] is the value written — no sign games; the
   header's own fields are u64 slots.  Each section starts 8-byte
   aligned so the [Int32] bigarray views mapped over them are aligned
   element views. *)
let max_u32 = 0x7FFF_FFFF

(* Section order is fixed; the header stores an (offset, length in
   bytes) pair per section. *)
let s_tag_table = 0
let s_tag_extents = 1
let s_postings = 2
let s_tag_ids = 3
let s_parents = 4
let s_subtree_ends = 5
let s_depths = 6
let s_ranks = 7
let s_val_pos = 8
let s_val_len = 9
let s_value_bytes = 10
let s_term_offsets = 11
let s_term_bytes = 12
let s_term_extents = 13
let s_content_postings = 14
let n_sections = 15

let section_name = function
  | 0 -> "tag_table"
  | 1 -> "tag_extents"
  | 2 -> "postings"
  | 3 -> "tag_ids"
  | 4 -> "parents"
  | 5 -> "subtree_ends"
  | 6 -> "depths"
  | 7 -> "ranks"
  | 8 -> "val_pos"
  | 9 -> "val_len"
  | 10 -> "value_bytes"
  | 11 -> "term_offsets"
  | 12 -> "term_bytes"
  | 13 -> "term_extents"
  | _ -> "content_postings"

(* magic+version block, 8 u64 count fields, then the section table.
   Bytes 6-7 of the magic block carry the section count as a u16 (0 is
   read as the legacy 15): a future version can append sections — e.g.
   a persisted dataguide — and old readers skip the entries they do not
   know while new readers still open old files. *)
let header_size_of sections = 8 + (8 * 8) + (sections * 16)
let header_size = header_size_of n_sections
let align8 v = (v + 7) land lnot 7

type error =
  | Not_index_file of { path : string }
  | Version_skew of { path : string; found : int; expected : int }
  | Truncated of { path : string; detail : string }
  | Corrupt of { path : string; detail : string }

let error_message = function
  | Not_index_file { path } -> Printf.sprintf "%s: not a .wpidx index file" path
  | Version_skew { path; found; expected } ->
      Printf.sprintf "%s: index format version %d (this build reads %d)" path
        found expected
  | Truncated { path; detail } -> Printf.sprintf "%s: truncated: %s" path detail
  | Corrupt { path; detail } -> Printf.sprintf "%s: corrupt: %s" path detail

exception Invalid of error

(* FNV-1a over the header bytes (checksum field zeroed), so a damaged
   header is rejected as corruption rather than interpreted. *)
let fnv64 bytes =
  let h = ref 0xcbf29ce484222325L in
  Bytes.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    bytes;
  !h

type info = {
  nodes : int;
  tags : int;
  terms : int;
  value_bytes : int;
  content_postings : int;
  file_bytes : int;
}

(* ------------------------------------------------------------------ *)
(* Writer: the [wp_cli index build] compactor.                         *)
(* ------------------------------------------------------------------ *)

let check_u32 what v =
  if v < 0 || v > max_u32 then
    invalid_arg
      (Printf.sprintf "Index_file: %s (%d) exceeds the supported range" what v)

let u32s arr =
  let b = Buffer.create (4 * Array.length arr) in
  Array.iter
    (fun v ->
      check_u32 "field" v;
      Buffer.add_int32_le b (Int32.of_int v))
    arr;
  Buffer.contents b

let string_table strs =
  let b = Buffer.create 256 in
  List.iter
    (fun s ->
      check_u32 "string length" (String.length s);
      Buffer.add_int32_le b (Int32.of_int (String.length s));
      Buffer.add_string b s)
    strs;
  Buffer.contents b

(* The index terms of one value, mirroring
   [Relaxation.contains_token]'s tokenization: the space-delimited
   tokens (for relaxed content matches) plus the full string (for exact
   ones), deduplicated. *)
let terms_of_value v =
  List.filter
    (fun s -> s <> "")
    (List.sort_uniq String.compare (v :: String.split_on_char ' ' v))

let write path doc =
  let n = Doc.size doc in
  check_u32 "node count" n;
  let tags = Doc.distinct_tags doc in
  let tag_count = List.length tags in
  let tag_id = Hashtbl.create (max 16 (tag_count * 2)) in
  List.iteri (fun i t -> Hashtbl.add tag_id t i) tags;
  (* Per-tag postings, document order within each tag. *)
  let buckets = Array.make tag_count [] in
  let tag_ids = Array.make n 0 in
  for i = n - 1 downto 0 do
    let id = Hashtbl.find tag_id (Doc.tag doc i) in
    tag_ids.(i) <- id;
    buckets.(id) <- i :: buckets.(id)
  done;
  let tag_extents = Array.make (2 * tag_count) 0 in
  let postings = Array.make n 0 in
  let pos = ref 0 in
  Array.iteri
    (fun id bucket ->
      tag_extents.(2 * id) <- !pos;
      List.iter
        (fun node ->
          postings.(!pos) <- node;
          incr pos)
        bucket;
      tag_extents.((2 * id) + 1) <- !pos - tag_extents.(2 * id))
    buckets;
  (* Structure columns. *)
  let parents = Array.make n 0 in
  let subtree_ends = Array.make n 0 in
  let depths = Array.make n 0 in
  let ranks = Array.make n 0 in
  let next_rank = Array.make n 0 in
  for i = 0 to n - 1 do
    let p = Option.value (Doc.parent doc i) ~default:(-1) in
    parents.(i) <- p + 1;
    subtree_ends.(i) <- Doc.subtree_end doc i;
    depths.(i) <- Doc.depth doc i;
    if p >= 0 then begin
      next_rank.(p) <- next_rank.(p) + 1;
      ranks.(i) <- next_rank.(p)
    end
  done;
  (* Values and content postings. *)
  let value_buf = Buffer.create 4096 in
  let val_pos = Array.make n 0 in
  let val_len = Array.make n 0 in
  let term_tbl : (string, int list ref) Hashtbl.t = Hashtbl.create 1024 in
  for i = 0 to n - 1 do
    match Doc.value doc i with
    | None -> ()
    | Some v ->
        check_u32 "value offset" (Buffer.length value_buf + 1);
        val_pos.(i) <- Buffer.length value_buf + 1;
        val_len.(i) <- String.length v;
        Buffer.add_string value_buf v;
        List.iter
          (fun tok ->
            match Hashtbl.find_opt term_tbl tok with
            | Some l -> l := i :: !l
            | None -> Hashtbl.add term_tbl tok (ref [ i ]))
          (terms_of_value v)
  done;
  let terms =
    List.sort String.compare
      (Hashtbl.fold (fun t _ acc -> t :: acc) term_tbl [])
  in
  let term_count = List.length terms in
  check_u32 "term count" term_count;
  let term_bytes = Buffer.create 4096 in
  let term_offsets = Array.make (term_count + 1) 0 in
  let term_extents = Array.make (2 * term_count) 0 in
  let content = Buffer.create 4096 in
  let content_len = ref 0 in
  List.iteri
    (fun j term ->
      term_offsets.(j) <- Buffer.length term_bytes;
      Buffer.add_string term_bytes term;
      let nodes = List.rev !(Hashtbl.find term_tbl term) in
      term_extents.(2 * j) <- !content_len;
      List.iter
        (fun node ->
          Buffer.add_int32_le content (Int32.of_int node);
          incr content_len)
        nodes;
      term_extents.((2 * j) + 1) <- !content_len - term_extents.(2 * j))
    terms;
  term_offsets.(term_count) <- Buffer.length term_bytes;
  check_u32 "term bytes" (Buffer.length term_bytes);
  check_u32 "content postings" !content_len;
  (* Layout: 8-aligned sections after the fixed header. *)
  let sections = Array.make n_sections "" in
  sections.(s_tag_table) <- string_table tags;
  sections.(s_tag_extents) <- u32s tag_extents;
  sections.(s_postings) <- u32s postings;
  sections.(s_tag_ids) <- u32s tag_ids;
  sections.(s_parents) <- u32s parents;
  sections.(s_subtree_ends) <- u32s subtree_ends;
  sections.(s_depths) <- u32s depths;
  sections.(s_ranks) <- u32s ranks;
  sections.(s_val_pos) <- u32s val_pos;
  sections.(s_val_len) <- u32s val_len;
  sections.(s_value_bytes) <- Buffer.contents value_buf;
  sections.(s_term_offsets) <- u32s term_offsets;
  sections.(s_term_bytes) <- Buffer.contents term_bytes;
  sections.(s_term_extents) <- u32s term_extents;
  sections.(s_content_postings) <- Buffer.contents content;
  let offsets = Array.make n_sections 0 in
  let cursor = ref header_size in
  Array.iteri
    (fun i s ->
      let off = align8 !cursor in
      offsets.(i) <- off;
      cursor := off + String.length s)
    sections;
  let file_size = !cursor in
  let header = Bytes.make header_size '\000' in
  Bytes.blit_string magic 0 header 0 (String.length magic);
  Bytes.set header 5 (Char.chr version);
  Bytes.set_uint16_le header 6 n_sections;
  let set_u64 slot v = Bytes.set_int64_le header (8 + (8 * slot)) (Int64.of_int v) in
  set_u64 0 n;
  set_u64 1 tag_count;
  set_u64 2 n (* postings length *);
  set_u64 3 (Buffer.length value_buf);
  set_u64 4 term_count;
  set_u64 5 !content_len;
  set_u64 6 file_size;
  Array.iteri
    (fun i s ->
      Bytes.set_int64_le header (72 + (16 * i)) (Int64.of_int offsets.(i));
      Bytes.set_int64_le header
        (72 + (16 * i) + 8)
        (Int64.of_int (String.length s)))
    sections;
  (* Checksum last, over the header with its own slot still zero. *)
  Bytes.set_int64_le header (8 + (8 * 7)) (fnv64 header);
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_bytes oc header;
      let written = ref header_size in
      Array.iteri
        (fun i s ->
          for _ = !written to offsets.(i) - 1 do
            output_char oc '\000'
          done;
          written := offsets.(i) + String.length s;
          output_string oc s)
        sections);
  file_size

(* ------------------------------------------------------------------ *)
(* Reader: validate, then map.                                         *)
(* ------------------------------------------------------------------ *)

type char_view =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  path : string;
  info : info;
  index : Index.t;
  term_offsets : Index.int32_view;
  term_bytes : char_view;
  term_extents : Index.int32_view;
  content : Index.int32_view;
}

let index t = t.index
let info t = t.info
let path t = t.path

type header = {
  h_nodes : int;
  h_tags : int;
  h_value_bytes : int;
  h_terms : int;
  h_content : int;
  h_file_size : int;
  h_offsets : int array;  (* per section *)
  h_lengths : int array;
}

(* Parse and cross-check the header: magic, version, checksum, declared
   file size, and every section's (offset, length) against the actual
   file — all before a single byte is mapped or any count-sized
   allocation happens.  [sections] is the section-table size announced
   by the prelude; entries beyond the [n_sections] this build knows are
   range-checked and skipped (forward compatibility). *)
let parse_header path ~actual_size ~sections bytes =
  let fail detail = raise (Invalid (Corrupt { path; detail })) in
  if not (String.equal (Bytes.sub_string bytes 0 5) magic) then
    raise (Invalid (Not_index_file { path }));
  let v = Char.code (Bytes.get bytes 5) in
  if v <> version then
    raise (Invalid (Version_skew { path; found = v; expected = version }));
  let header_size = header_size_of sections in
  let stored_sum = Bytes.get_int64_le bytes (8 + (8 * 7)) in
  Bytes.set_int64_le bytes (8 + (8 * 7)) 0L;
  if not (Int64.equal (fnv64 bytes) stored_sum) then fail "header checksum mismatch";
  let u64 slot =
    let v = Bytes.get_int64_le bytes (8 + (8 * slot)) in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0
    then fail "header field out of range";
    Int64.to_int v
  in
  let h_nodes = u64 0 in
  let h_tags = u64 1 in
  let h_postings = u64 2 in
  let h_value_bytes = u64 3 in
  let h_terms = u64 4 in
  let h_content = u64 5 in
  let h_file_size = u64 6 in
  if h_nodes < 1 then fail "empty document";
  if h_nodes > max_u32 || h_tags > h_nodes || h_postings <> h_nodes then
    fail "implausible node counts";
  if h_file_size > actual_size then
    raise
      (Invalid
         (Truncated
            {
              path;
              detail =
                Printf.sprintf "header declares %d bytes, file has %d"
                  h_file_size actual_size;
            }));
  if h_file_size < actual_size then fail "trailing bytes after declared size";
  let h_offsets = Array.make n_sections 0 in
  let h_lengths = Array.make n_sections 0 in
  for i = 0 to sections - 1 do
    let off = Bytes.get_int64_le bytes (72 + (16 * i)) in
    let len = Bytes.get_int64_le bytes (72 + (16 * i) + 8) in
    let out_of_range v =
      Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0
    in
    if out_of_range off || out_of_range len then
      fail (Printf.sprintf "section %s out of range" (section_name i));
    let off = Int64.to_int off and len = Int64.to_int len in
    if i < n_sections then begin
      if
        off < header_size || off land 7 <> 0 || off > h_file_size
        || len > h_file_size - off
      then fail (Printf.sprintf "section %s out of range" (section_name i));
      h_offsets.(i) <- off;
      h_lengths.(i) <- len
    end
    (* Entries this build does not know about are tolerated as long as
       they point inside the file: a newer writer appended data we can
       simply not map. *)
    else if off > h_file_size || len > h_file_size - off then
      fail (Printf.sprintf "unknown section %d out of range" i)
  done;
  (* Fixed-width sections must be exactly as large as the counts say. *)
  let expect i bytes_wanted =
    if h_lengths.(i) <> bytes_wanted then
      fail (Printf.sprintf "section %s length mismatch" (section_name i))
  in
  expect s_tag_extents (8 * h_tags);
  expect s_postings (4 * h_nodes);
  expect s_tag_ids (4 * h_nodes);
  expect s_parents (4 * h_nodes);
  expect s_subtree_ends (4 * h_nodes);
  expect s_depths (4 * h_nodes);
  expect s_ranks (4 * h_nodes);
  expect s_val_pos (4 * h_nodes);
  expect s_val_len (4 * h_nodes);
  expect s_value_bytes h_value_bytes;
  expect s_term_offsets (4 * (h_terms + 1));
  expect s_term_extents (8 * h_terms);
  expect s_content_postings (4 * h_content);
  { h_nodes; h_tags; h_value_bytes; h_terms; h_content; h_file_size;
    h_offsets; h_lengths }

(* Eagerly decode the (small) tag table and tag extents with ordinary
   reads, validating string lengths and extent ranges: never trust a
   length field further than the bytes actually present. *)
let read_tag_table path ic (h : header) =
  let fail detail = raise (Invalid (Corrupt { path; detail })) in
  seek_in ic h.h_offsets.(s_tag_table);
  let left = ref h.h_lengths.(s_tag_table) in
  let tags =
    List.init h.h_tags (fun _ ->
        if !left < 4 then fail "tag table exceeds its section";
        let b = Bytes.create 4 in
        really_input ic b 0 4;
        let len = Int32.to_int (Bytes.get_int32_le b 0) in
        if len < 0 || len > !left - 4 then
          fail "tag length exceeds tag table";
        left := !left - 4 - len;
        really_input_string ic len)
  in
  seek_in ic h.h_offsets.(s_tag_extents);
  let eb = Bytes.create (8 * h.h_tags) in
  really_input ic eb 0 (8 * h.h_tags);
  let total = ref 0 in
  let tag_arr = Array.of_list tags in
  let extents =
    List.init h.h_tags (fun i ->
        let off = Int32.to_int (Bytes.get_int32_le eb (8 * i)) in
        let len = Int32.to_int (Bytes.get_int32_le eb ((8 * i) + 4)) in
        if off < 0 || len < 0 || off > h.h_nodes || len > h.h_nodes - off then
          fail "tag extent out of range";
        total := !total + len;
        (tag_arr.(i), off, len))
  in
  if !total <> h.h_nodes then fail "tag extents do not cover the postings";
  (tags, extents)

let map_i32 fd ~off ~elems : Index.int32_view =
  if elems = 0 then Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int off) Bigarray.int32
         Bigarray.c_layout false [| elems |])

let map_char fd ~off ~bytes : char_view =
  if bytes = 0 then Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int off) Bigarray.char
         Bigarray.c_layout false [| bytes |])

let i32 (view : Index.int32_view) i = Int32.to_int (Bigarray.Array1.get view i)

let chunk (view : char_view) ~pos ~len =
  let b = Bytes.create len in
  for j = 0 to len - 1 do
    Bytes.unsafe_set b j (Bigarray.Array1.get view (pos + j))
  done;
  Bytes.unsafe_to_string b

let open_index path =
  try
    let ic =
      try open_in_bin path
      with Sys_error m -> raise (Invalid (Truncated { path; detail = m }))
    in
    let header, tags, extents =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let actual_size = in_channel_length ic in
          if actual_size < 8 then
            raise
              (Invalid
                 (Truncated { path; detail = "file shorter than the header" }));
          (* Prelude first: the section count at bytes 6-7 sizes the
             header (0 = the legacy fixed table; fewer sections than
             this build requires cannot be a valid file). *)
          let pre = Bytes.create 8 in
          really_input ic pre 0 8;
          if not (String.equal (Bytes.sub_string pre 0 5) magic) then
            raise (Invalid (Not_index_file { path }));
          let sections =
            match Bytes.get_uint16_le pre 6 with 0 -> n_sections | c -> c
          in
          if sections < n_sections then
            raise
              (Invalid
                 (Corrupt { path; detail = "section table too small" }));
          let header_size = header_size_of sections in
          if actual_size < header_size then
            raise
              (Invalid
                 (Truncated { path; detail = "file shorter than the header" }));
          seek_in ic 0;
          let hb = Bytes.create header_size in
          really_input ic hb 0 header_size;
          let header = parse_header path ~actual_size ~sections hb in
          let tags, extents = read_tag_table path ic header in
          (header, tags, extents))
    in
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    let view =
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let n = header.h_nodes in
          let sec_i32 s elems = map_i32 fd ~off:header.h_offsets.(s) ~elems in
          let postings = sec_i32 s_postings n in
          let tag_ids = sec_i32 s_tag_ids n in
          let parents = sec_i32 s_parents n in
          let subtree_ends = sec_i32 s_subtree_ends n in
          let depths = sec_i32 s_depths n in
          let ranks = sec_i32 s_ranks n in
          let val_pos = sec_i32 s_val_pos n in
          let val_len = sec_i32 s_val_len n in
          let value_bytes =
            map_char fd ~off:header.h_offsets.(s_value_bytes)
              ~bytes:header.h_value_bytes
          in
          let term_offsets = sec_i32 s_term_offsets (header.h_terms + 1) in
          let term_bytes =
            map_char fd ~off:header.h_offsets.(s_term_bytes)
              ~bytes:header.h_lengths.(s_term_bytes)
          in
          let term_extents = sec_i32 s_term_extents (2 * header.h_terms) in
          let content = sec_i32 s_content_postings header.h_content in
          let tag_arr = Array.of_list tags in
          let doc =
            Doc.of_ext ~size:n
              ~tag:(fun i -> tag_arr.(i32 tag_ids i))
              ~value:(fun i ->
                let p = i32 val_pos i in
                if p = 0 then None
                else Some (chunk value_bytes ~pos:(p - 1) ~len:(i32 val_len i)))
              ~parent:(fun i -> i32 parents i - 1)
              ~subtree_end:(fun i -> i32 subtree_ends i)
              ~depth:(fun i -> i32 depths i)
              ~rank:(fun i -> i32 ranks i)
              ~distinct_tags:tags
          in
          let index = Index.of_mapped ~doc ~postings ~extents in
          {
            path;
            info =
              {
                nodes = n;
                tags = header.h_tags;
                terms = header.h_terms;
                value_bytes = header.h_value_bytes;
                content_postings = header.h_content;
                file_bytes = header.h_file_size;
              };
            index;
            term_offsets;
            term_bytes;
            term_extents;
            content;
          })
    in
    Ok view
  with
  | Invalid e -> Error e
  | End_of_file ->
      Error (Truncated { path; detail = "unexpected end of file" })
  | Unix.Unix_error (e, _, _) ->
      Error (Truncated { path; detail = Unix.error_message e })
  | Sys_error m -> Error (Truncated { path; detail = m })

(* Binary search over the sorted mapped term table; the handful of
   probe decodings beat materializing the whole dictionary at open. *)
let lookup_term t term =
  let term_at j =
    let off = i32 t.term_offsets j in
    chunk t.term_bytes ~pos:off ~len:(i32 t.term_offsets (j + 1) - off)
  in
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare (term_at mid) term in
      if c = 0 then Some mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  match go 0 t.info.terms with
  | None -> [||]
  | Some j ->
      let off = i32 t.term_extents (2 * j) in
      let len = i32 t.term_extents ((2 * j) + 1) in
      Array.init len (fun i -> i32 t.content (off + i))

let term_count t = t.info.terms
