(* One postings form for every index: a column of node ids grouped by
   tag id (document order within each tag) plus an (offset, length)
   extent per tag — the [.wpidx] sections, built in memory by {!build}
   or mapped in place by [Wp_storage]. *)

module A = Bigarray.Array1

type columns = { postings : Doc.int32_column; extents : Doc.int32_column }
type postings = { base : Doc.int32_column; off : int; len : int }

type t = {
  doc : Doc.t;
  columns : columns;
  by_tag : (string, postings) Hashtbl.t;
  mutable all_ids : Doc.int32_column option;  (* lazily built for "*" *)
}

let wildcard = "*"
let int32_column n : Doc.int32_column = A.create Bigarray.int32 Bigarray.c_layout n

let of_columns doc columns =
  let tags = (Doc.columns doc).tags in
  let n = Doc.size doc in
  if A.dim columns.postings <> n then
    invalid_arg "Index.of_columns: postings length mismatch";
  if A.dim columns.extents <> 2 * Array.length tags then
    invalid_arg "Index.of_columns: extents length mismatch";
  let by_tag = Hashtbl.create (2 * Array.length tags) in
  let total = ref 0 in
  Array.iteri
    (fun id tag ->
      let off = Int32.to_int (A.get columns.extents (2 * id)) in
      let len = Int32.to_int (A.get columns.extents ((2 * id) + 1)) in
      if off < 0 || len < 0 || off > n || len > n - off then
        invalid_arg "Index.of_columns: tag extent out of range";
      total := !total + len;
      Hashtbl.replace by_tag tag { base = columns.postings; off; len })
    tags;
  if !total <> n then
    invalid_arg "Index.of_columns: tag extents do not cover the postings";
  { doc; columns; by_tag; all_ids = None }

(* A counting pass sizes each tag's extent, a second pass fills it. *)
let build doc =
  let c = Doc.columns doc in
  let n = Doc.size doc and ntags = Array.length c.tags in
  let tag_id i = Int32.to_int (A.get c.tag_ids i) in
  let next = Array.make ntags 0 in
  for i = 0 to n - 1 do
    let t = tag_id i in
    next.(t) <- next.(t) + 1
  done;
  let extents = int32_column (2 * ntags) in
  let pos = ref 0 in
  for t = 0 to ntags - 1 do
    let count = next.(t) in
    extents.{2 * t} <- Int32.of_int !pos;
    extents.{(2 * t) + 1} <- Int32.of_int count;
    next.(t) <- !pos;
    pos := !pos + count
  done;
  let postings = int32_column n in
  for i = 0 to n - 1 do
    let t = tag_id i in
    postings.{next.(t)} <- Int32.of_int i;
    next.(t) <- next.(t) + 1
  done;
  of_columns doc { postings; extents }

let doc t = t.doc
let columns t = t.columns

let all t =
  match t.all_ids with
  | Some a -> a
  | None ->
      (* Identity postings for "*": every node, in document order.  A
         racing second builder computes the same column; the last
         single-field write wins harmlessly. *)
      let n = Doc.size t.doc in
      let a = int32_column n in
      for i = 0 to n - 1 do
        a.{i} <- Int32.of_int i
      done;
      t.all_ids <- Some a;
      a

let empty = { base = int32_column 0; off = 0; len = 0 }

let postings t tag =
  if String.equal tag wildcard then
    let base = all t in
    { base; off = 0; len = A.dim base }
  else Option.value (Hashtbl.find_opt t.by_tag tag) ~default:empty

let postings_length p = p.len
let[@inline] pget p i = Int32.to_int (A.unsafe_get p.base (p.off + i))

let[@inline] posting p i =
  if i < 0 || i >= p.len then invalid_arg "Index.posting: out of range";
  pget p i

let count t tag = (postings t tag).len

(* First position in [lo, hi) of [p] whose value is >= [v], or [hi]. *)
let rec bisect p v lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if pget p mid < v then bisect p v (mid + 1) hi else bisect p v lo mid

let lower_bound p v = bisect p v 0 p.len

(* Gallop from [lo] (every position before it holds a value < [v]) in
   doubling steps, then bisect the last step. *)
let rec gallop p v lo step =
  let probe = lo + step - 1 in
  if probe >= p.len || pget p probe >= v then bisect p v lo (min (probe + 1) p.len)
  else gallop p v (probe + 1) (2 * step)

let lower_bound_from p ~from v =
  if from >= p.len || pget p from >= v then from else gallop p v (from + 1) 1

let slice t tag ~root =
  let p = postings t tag in
  let lo = lower_bound p (root + 1) in
  let hi = lower_bound p (Doc.subtree_end t.doc root) in
  (p, lo, hi)

let subtree_slice t tag ~root =
  let _, lo, hi = slice t tag ~root in
  (lo, hi)

let fold_descendants t tag ~root f acc =
  let p, lo, hi = slice t tag ~root in
  let r = ref acc in
  for i = lo to hi - 1 do
    r := f !r (pget p i)
  done;
  !r

let descendants t tag ~root =
  List.rev (fold_descendants t tag ~root (fun acc i -> i :: acc) [])

(* Walk the document's first-child/next-sibling structure (a child's
   subtree end is its next sibling's id) and keep the tagged ones:
   O(children of parent) instead of filtering the parent's entire
   subtree slice. *)
let children t tag ~parent =
  let doc = t.doc in
  let wild = String.equal tag wildcard in
  let stop = Doc.subtree_end doc parent in
  let rec go i acc =
    if i >= stop then List.rev acc
    else
      go (Doc.subtree_end doc i)
        (if wild || String.equal (Doc.tag doc i) tag then i :: acc else acc)
  in
  go (parent + 1) []

let count_descendants t tag ~root =
  let lo, hi = subtree_slice t tag ~root in
  hi - lo
