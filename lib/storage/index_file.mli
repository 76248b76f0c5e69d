(** The versioned binary on-disk index format ([.wpidx]).

    A [.wpidx] file is the compacted, query-ready form of one document:
    the tag dictionary with per-tag posting extents, the preorder
    structure columns (parent, subtree extent, depth, child rank), the
    node values with a content-term dictionary and postings, all behind
    a checksummed fixed header.  [wp_cli index build] writes it;
    {!open_index} validates the header and section table and then
    memory-maps the columns with [Unix.map_file], so opening a
    multi-hundred-megabyte index is O(1) — pages fault in on demand as
    queries touch them.

    The mapped view is presented as an ordinary {!Wp_xml.Index.t} (over
    a {!Wp_xml.Doc.of_ext} document), so plans, servers and caches run
    unchanged over either backend, with identical answers and identical
    visit/comparison counters — the differential property the test
    suite pins.

    {2 Layout}

    All integers are little-endian; data u32 slots are capped at
    [2^31 - 1].  The header holds the magic ["WPIDX"], a format
    version byte, a u16 section count (0 is read as the baseline 15,
    for files written before the count existed), eight u64 fields
    (node/tag/term counts, byte sizes, declared file size, FNV-1a
    header checksum over the whole variable-size header) and an
    (offset, length) pair for each section, every section starting
    8-byte aligned — 312 bytes at the baseline count.  Readers
    validate the 15 sections they know and skip any trailing entries a
    newer writer appended (e.g. a persisted dataguide), so the format
    can grow without breaking old files; a count below 15 is rejected.
    Damage to the header, the section table or the tag extents — bad
    magic, version skew, checksum mismatch, truncation, out-of-range or
    misaligned section extents, tag extents that do not tile the
    postings — is rejected with a typed {!error} before anything is
    mapped or any count-sized allocation happens.  The mapped column
    bytes are not checksummed or range-checked: a file whose header is
    intact but whose columns were altered opens, and a query over it
    can return wrong answers or raise [Invalid_argument] on an
    out-of-range node id. *)

val magic : string
(** First bytes of every [.wpidx] file (["WPIDX"]), for sniffing. *)

val version : int

type error =
  | Not_index_file of { path : string }
  | Version_skew of { path : string; found : int; expected : int }
  | Truncated of { path : string; detail : string }
  | Corrupt of { path : string; detail : string }

val error_message : error -> string

type info = {
  nodes : int;
  tags : int;
  terms : int;  (** distinct content terms *)
  value_bytes : int;
  content_postings : int;
  file_bytes : int;
}

val write : string -> Wp_xml.Doc.t -> int
(** [write path doc] compacts [doc] into a [.wpidx] file at [path] and
    returns the file size in bytes.
    @raise Invalid_argument if the document exceeds a u32 field
    (more than [2^31 - 1] nodes or value bytes);
    @raise Sys_error on I/O failure. *)

type t
(** An open, memory-mapped index. *)

val open_index : string -> (t, error) result
(** Validate and map [path].  The file descriptor is closed before
    returning (the mappings keep the pages alive); nothing beyond the
    header, tag table and tag extents is read eagerly. *)

val index : t -> Wp_xml.Index.t
(** The mapped view as a regular index — every engine runs on it
    unchanged. *)

val info : t -> info
val path : t -> string

val lookup_term : t -> string -> int array
(** Nodes whose value contains the given content term (a full value
    string or one of its space-delimited tokens, matching
    [Relaxation.contains_token]), in document order; empty for unknown
    terms.  Binary search over the sorted mapped term dictionary. *)

val term_count : t -> int
