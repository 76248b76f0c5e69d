type node_id = int

module A = Bigarray.Array1

type int32_column = (int32, Bigarray.int32_elt, Bigarray.c_layout) A.t

type char_column =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A.t

(* One representation for every document: the columns of a [.wpidx]
   file, built in memory by [of_tree] or mapped in place by
   [Wp_storage].  Nothing here depends on how a column is backed, which
   keeps this library free of [Unix]. *)
type columns = {
  tags : string array;
  tag_ids : int32_column;
  parents : int32_column;
  subtree_ends : int32_column;
  depths : int32_column;
  ranks : int32_column;
  val_pos : int32_column;
  val_len : int32_column;
  value_bytes : char_column;
}

type t = columns

let max_u32 = 0x7FFF_FFFF
let int32_column n : int32_column = A.create Bigarray.int32 Bigarray.c_layout n
let[@inline] get (c : int32_column) i = Int32.to_int (A.get c i)
let[@inline] set (c : int32_column) i v = A.unsafe_set c i (Int32.of_int v)

let of_columns c =
  let n = A.dim c.tag_ids in
  if n < 1 then invalid_arg "Doc.of_columns: empty document";
  List.iter
    (fun col ->
      if A.dim col <> n then invalid_arg "Doc.of_columns: column length mismatch")
    [ c.parents; c.subtree_ends; c.depths; c.ranks; c.val_pos; c.val_len ];
  c

let columns t = t

let of_tree tree =
  let n = Tree.size tree in
  if n > max_u32 then invalid_arg "Doc.of_tree: too many nodes";
  let tag_ids = int32_column n and parents = int32_column n in
  let subtree_ends = int32_column n and depths = int32_column n in
  let ranks = int32_column n and val_pos = int32_column n in
  let val_len = int32_column n in
  let tag_id = Hashtbl.create 64 and tags = ref [] in
  let values = Buffer.create 4096 in
  (* Preorder numbering; [next] is the next free id. *)
  let next = ref 0 in
  let rec assign ~parent ~depth ~rank (node : Tree.t) =
    let id = !next in
    incr next;
    let tag = Tree.tag node in
    set tag_ids id
      (match Hashtbl.find_opt tag_id tag with
      | Some t -> t
      | None ->
          let t = Hashtbl.length tag_id in
          Hashtbl.add tag_id tag t;
          tags := tag :: !tags;
          t);
    set parents id (parent + 1);
    set depths id depth;
    set ranks id rank;
    (match Tree.value node with
    | None ->
        set val_pos id 0;
        set val_len id 0
    | Some v ->
        if Buffer.length values + String.length v >= max_u32 then
          invalid_arg "Doc.of_tree: too many value bytes";
        set val_pos id (Buffer.length values + 1);
        set val_len id (String.length v);
        Buffer.add_string values v);
    List.iteri
      (fun i child -> assign ~parent:id ~depth:(depth + 1) ~rank:(i + 1) child)
      (Tree.children node);
    set subtree_ends id !next
  in
  assign ~parent:(-1) ~depth:0 ~rank:0 tree;
  let value_bytes = A.create Bigarray.char Bigarray.c_layout (Buffer.length values) in
  String.iteri (A.unsafe_set value_bytes) (Buffer.contents values);
  of_columns
    {
      tags = Array.of_list (List.rev !tags);
      tag_ids;
      parents;
      subtree_ends;
      depths;
      ranks;
      val_pos;
      val_len;
      value_bytes;
    }

let of_forest ?(root_tag = "doc-root") trees =
  of_tree (Tree.el root_tag trees)

let root _ = 0
let size t = A.dim t.tag_ids

let tag t i = t.tags.(get t.tag_ids i)

(* Offset of node [i]'s value in [value_bytes], [-1] when the node has
   none; its length is [get t.val_len i].  Returned as an int, not a
   pair, so the in-place tests below allocate nothing. *)
let value_offset t i =
  let p = get t.val_pos i in
  if p = 0 then -1
  else
    let len = get t.val_len i in
    if p < 0 || len < 0 || p - 1 + len > A.dim t.value_bytes then
      invalid_arg "Doc.value: value out of range"
    else p - 1

let value t i =
  let off = value_offset t i in
  if off < 0 then None
  else begin
    let len = get t.val_len i in
    let b = Bytes.create len in
    for j = 0 to len - 1 do
      Bytes.unsafe_set b j (A.unsafe_get t.value_bytes (off + j))
    done;
    Some (Bytes.unsafe_to_string b)
  end

(* Does [value_bytes.[off + j, off + String.length s)] spell the rest
   of [s] from [j]?  The helpers here are top-level recursions, not
   local closures, so a test allocates nothing. *)
let rec bytes_equal t off s j =
  j >= String.length s
  || (A.unsafe_get t.value_bytes (off + j) = String.unsafe_get s j
     && bytes_equal t off s (j + 1))

let value_equals t i s =
  let off = value_offset t i in
  off >= 0 && get t.val_len i = String.length s && bytes_equal t off s 0

let rec token_end t ~stop j =
  if j < stop && A.unsafe_get t.value_bytes j <> ' ' then
    token_end t ~stop (j + 1)
  else j

(* Tokens are the maximal runs between single spaces, empty runs
   included — what [String.split_on_char ' '] returns. *)
let rec has_token t ~stop s start =
  let e = token_end t ~stop start in
  (e - start = String.length s && bytes_equal t start s 0)
  || (e < stop && has_token t ~stop s (e + 1))

let value_has_token t i s =
  let off = value_offset t i in
  off >= 0 && has_token t ~stop:(off + get t.val_len i) s off

let depth t i = get t.depths i
let subtree_end t i = get t.subtree_ends i

(* A Dewey label is the child ranks up the parent chain, collected in
   O(depth): only answer rendering and [Axis] read labels, never the
   engines' structural hot path (which uses [depth]/[subtree_end]). *)
let dewey t i =
  let ranks = Array.make (depth t i) 0 in
  let rec fill j lvl =
    if lvl >= 0 then begin
      ranks.(lvl) <- get t.ranks j;
      fill (get t.parents j - 1) (lvl - 1)
    end
  in
  fill i (Array.length ranks - 1);
  Dewey.of_array ranks

let parent t i =
  let p = get t.parents i - 1 in
  if p < 0 then None else Some p

let children t i =
  let stop = subtree_end t i in
  let rec loop j acc =
    if j >= stop then List.rev acc else loop (subtree_end t j) (j :: acc)
  in
  loop (i + 1) []

let is_parent t ~parent:p ~child:c = get t.parents c - 1 = p
let is_ancestor t ~anc ~desc = anc < desc && desc < subtree_end t anc

let rec to_tree t i =
  let cs = List.map (to_tree t) (children t i) in
  { Tree.tag = tag t i; value = value t i; children = cs }

let fold f t acc =
  let r = ref acc in
  for i = 0 to size t - 1 do
    r := f i !r
  done;
  !r

let distinct_tags t = Array.to_list t.tags

let pp_node t ppf i =
  Format.fprintf ppf "%s[%a]" (tag t i) Dewey.pp (dewey t i);
  match value t i with
  | None -> ()
  | Some v -> Format.fprintf ppf "(%s)" v
