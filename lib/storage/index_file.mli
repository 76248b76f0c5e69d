(** The versioned binary on-disk index format ([.wpidx]).

    A [.wpidx] file is a document's columns ({!Wp_xml.Doc.columns}) and
    its index's postings ({!Wp_xml.Index.columns}) behind a checksummed
    header.  [wp_cli index build] writes it; {!open_index} validates the
    header and section table and then memory-maps the columns with
    [Unix.map_file], so opening a multi-hundred-megabyte index is O(1) —
    pages fault in on demand as queries touch them.  The mapped columns
    are the document's and index's own representation (the same one an
    XML-loaded document builds in memory), so plans, servers and caches
    run unchanged, with identical answers and identical
    visit/comparison counters — the differential property the test
    suite pins.

    {2 Layout}

    All integers are little-endian.  The header holds the magic
    ["WPIDX"], a format version byte, a u16 section count, five u64
    fields (node count, tag count, value bytes, declared file size and
    an FNV-1a checksum over the whole variable-size header) and an
    (offset, length) pair of u64s for each section, every section
    starting 8-byte aligned — 224 bytes at this version's 11 sections.
    Readers validate the sections they know and skip any trailing
    entries a newer writer appended (e.g. a persisted dataguide), so the
    format can grow without breaking old readers; a count below 11 is
    rejected.  Damage to the header, the section table or the tag
    extents — bad magic, version skew, checksum mismatch, truncation,
    out-of-range or misaligned section extents, tag extents that leave
    the postings — is rejected with a typed {!error} before anything is
    mapped or any count-sized allocation happens.  The other column
    bytes are not checksummed or range-checked: a file whose header is
    intact but whose columns were altered opens, and a query over it
    can return wrong answers or raise [Invalid_argument] on an
    out-of-range node id. *)

val magic : string
(** First bytes of every [.wpidx] file (["WPIDX"]), for sniffing. *)

val version : int
(** [2]; a file of any other version is a {!Version_skew}. *)

type error =
  | Not_index_file of { path : string }
  | Version_skew of { path : string; found : int; expected : int }
  | Truncated of { path : string; detail : string }
  | Corrupt of { path : string; detail : string }

val error_message : error -> string

type info = { nodes : int; tags : int; value_bytes : int; file_bytes : int }

val write : string -> Wp_xml.Doc.t -> int
(** [write path doc] dumps [doc]'s columns and the postings of
    [Index.build doc] into a [.wpidx] file at [path] and returns the
    file size in bytes.  The bytes depend only on the document, so
    writing a mapped index's document reproduces its file.
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
