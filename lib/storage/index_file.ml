module Doc = Wp_xml.Doc
module Index = Wp_xml.Index
module A = Bigarray.Array1

let magic = "WPIDX"
let version = 2

(* Every on-disk integer is little-endian.  Column elements and string
   lengths are the int32 slots of [Doc]'s and [Index]'s columns; the
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
let n_sections = 11

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
  | _ -> "value_bytes"

(* The magic+version block, five u64 fields (node count, tag count,
   value bytes, file size, checksum), then the section table.  Bytes 6-7
   of the magic block carry the section count as a u16: a future writer
   can append sections — e.g. a persisted dataguide — and this reader
   skips the entries it does not know. *)
let f_nodes = 0
let f_tags = 1
let f_value_bytes = 2
let f_file_size = 3
let f_checksum = 4
let field_offset f = 8 + (8 * f)
let table_offset = field_offset 5
let header_size_of sections = table_offset + (sections * 16)
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

type info = { nodes : int; tags : int; value_bytes : int; file_bytes : int }

(* ------------------------------------------------------------------ *)
(* Writer: dump the columns the document and its index hold.           *)
(* ------------------------------------------------------------------ *)

let int32s (col : Doc.int32_column) =
  let b = Bytes.create (4 * A.dim col) in
  for i = 0 to A.dim col - 1 do
    Bytes.set_int32_le b (4 * i) (A.get col i)
  done;
  Bytes.unsafe_to_string b

let chars (col : Doc.char_column) = String.init (A.dim col) (A.get col)

let string_table strs =
  let b = Buffer.create 256 in
  Array.iter
    (fun s ->
      if String.length s > max_u32 then
        invalid_arg "Index_file: tag longer than 2^31 - 1 bytes";
      Buffer.add_int32_le b (Int32.of_int (String.length s));
      Buffer.add_string b s)
    strs;
  Buffer.contents b

let write path doc =
  let c = Doc.columns doc in
  let p = Index.columns (Index.build doc) in
  let sections =
    [|
      string_table c.tags;
      int32s p.extents;
      int32s p.postings;
      int32s c.tag_ids;
      int32s c.parents;
      int32s c.subtree_ends;
      int32s c.depths;
      int32s c.ranks;
      int32s c.val_pos;
      int32s c.val_len;
      chars c.value_bytes;
    |]
  in
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
  let set_u64 f v = Bytes.set_int64_le header (field_offset f) (Int64.of_int v) in
  set_u64 f_nodes (Doc.size doc);
  set_u64 f_tags (Array.length c.tags);
  set_u64 f_value_bytes (A.dim c.value_bytes);
  set_u64 f_file_size file_size;
  Array.iteri
    (fun i s ->
      let slot = table_offset + (16 * i) in
      Bytes.set_int64_le header slot (Int64.of_int offsets.(i));
      Bytes.set_int64_le header (slot + 8) (Int64.of_int (String.length s)))
    sections;
  (* Checksum last, over the header with its own slot still zero. *)
  Bytes.set_int64_le header (field_offset f_checksum) (fnv64 header);
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

type t = { path : string; info : info; index : Index.t }

let index t = t.index
let info t = t.info
let path t = t.path

type header = {
  h_nodes : int;
  h_tags : int;
  h_value_bytes : int;
  h_file_size : int;
  h_offsets : int array;  (* per section *)
  h_lengths : int array;
}

(* Parse and cross-check the header: checksum, declared file size, and
   every section's (offset, length) against the actual file — all
   before a single byte is mapped or any count-sized allocation
   happens.  [sections] is the section-table size announced by the
   prelude; entries beyond the [n_sections] this build knows are
   range-checked and skipped (forward compatibility). *)
let parse_header path ~actual_size ~sections bytes =
  let fail detail = raise (Invalid (Corrupt { path; detail })) in
  let header_size = header_size_of sections in
  let stored_sum = Bytes.get_int64_le bytes (field_offset f_checksum) in
  Bytes.set_int64_le bytes (field_offset f_checksum) 0L;
  if not (Int64.equal (fnv64 bytes) stored_sum) then fail "header checksum mismatch";
  let u64 f =
    let v = Bytes.get_int64_le bytes (field_offset f) in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0
    then fail "header field out of range";
    Int64.to_int v
  in
  let h_nodes = u64 f_nodes in
  let h_tags = u64 f_tags in
  let h_value_bytes = u64 f_value_bytes in
  let h_file_size = u64 f_file_size in
  if h_nodes < 1 then fail "empty document";
  if h_nodes > max_u32 || h_tags > h_nodes then fail "implausible node counts";
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
    let off = Bytes.get_int64_le bytes (table_offset + (16 * i)) in
    let len = Bytes.get_int64_le bytes (table_offset + (16 * i) + 8) in
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
  List.iter
    (fun s -> expect s (4 * h_nodes))
    [ s_postings; s_tag_ids; s_parents; s_subtree_ends; s_depths; s_ranks;
      s_val_pos; s_val_len ];
  expect s_value_bytes h_value_bytes;
  { h_nodes; h_tags; h_value_bytes; h_file_size; h_offsets; h_lengths }

(* Eagerly decode the (small) tag table with ordinary reads, validating
   string lengths: never trust a length field further than the bytes
   actually present. *)
let read_tag_table path ic (h : header) =
  let fail detail = raise (Invalid (Corrupt { path; detail })) in
  seek_in ic h.h_offsets.(s_tag_table);
  let left = ref h.h_lengths.(s_tag_table) in
  Array.init h.h_tags (fun _ ->
      if !left < 4 then fail "tag table exceeds its section";
      let b = Bytes.create 4 in
      really_input ic b 0 4;
      let len = Int32.to_int (Bytes.get_int32_le b 0) in
      if len < 0 || len > !left - 4 then fail "tag length exceeds tag table";
      left := !left - 4 - len;
      really_input_string ic len)

let map fd kind ~off ~elems =
  if elems = 0 then A.create kind Bigarray.c_layout 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int off) kind Bigarray.c_layout false
         [| elems |])

let open_index path =
  try
    let ic =
      try open_in_bin path
      with Sys_error m -> raise (Invalid (Truncated { path; detail = m }))
    in
    let header, tags =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let actual_size = in_channel_length ic in
          if actual_size < 8 then
            raise
              (Invalid
                 (Truncated { path; detail = "file shorter than the header" }));
          (* Prelude first: magic, version, and the section count at
             bytes 6-7 that sizes the header (fewer sections than this
             build requires cannot be a valid file). *)
          let pre = Bytes.create 8 in
          really_input ic pre 0 8;
          if not (String.equal (Bytes.sub_string pre 0 5) magic) then
            raise (Invalid (Not_index_file { path }));
          let v = Char.code (Bytes.get pre 5) in
          if v <> version then
            raise (Invalid (Version_skew { path; found = v; expected = version }));
          let sections = Bytes.get_uint16_le pre 6 in
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
          (header, read_tag_table path ic header))
    in
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    let index =
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let n = header.h_nodes in
          let section s kind elems =
            map fd kind ~off:header.h_offsets.(s) ~elems
          in
          let col s = section s Bigarray.int32 n in
          try
            let doc =
              Doc.of_columns
                {
                  tags;
                  tag_ids = col s_tag_ids;
                  parents = col s_parents;
                  subtree_ends = col s_subtree_ends;
                  depths = col s_depths;
                  ranks = col s_ranks;
                  val_pos = col s_val_pos;
                  val_len = col s_val_len;
                  value_bytes =
                    section s_value_bytes Bigarray.char header.h_value_bytes;
                }
            in
            Index.of_columns doc
              {
                postings = col s_postings;
                extents = section s_tag_extents Bigarray.int32 (2 * header.h_tags);
              }
          with Invalid_argument detail -> raise (Invalid (Corrupt { path; detail })))
    in
    Ok
      {
        path;
        info =
          {
            nodes = header.h_nodes;
            tags = header.h_tags;
            value_bytes = header.h_value_bytes;
            file_bytes = header.h_file_size;
          };
        index;
      }
  with
  | Invalid e -> Error e
  | End_of_file ->
      Error (Truncated { path; detail = "unexpected end of file" })
  | Unix.Unix_error (e, _, _) ->
      Error (Truncated { path; detail = Unix.error_message e })
  | Sys_error m -> Error (Truncated { path; detail = m })
