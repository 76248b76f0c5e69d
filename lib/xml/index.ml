(* Postings live either in ordinary [int array]s (built by {!build})
   or as a window into one shared [Int32] bigarray — the tag-extent
   section of a memory-mapped on-disk index ({!of_mapped}).  All range
   machinery below works uniformly over both, so the engines see
   identical slices (and charge identical counters) regardless of the
   backing store. *)

type int32_view =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type postings =
  | P_mem of int array
  | P_map of { base : int32_view; off : int; len : int }

type t = {
  doc : Doc.t;
  by_tag : (string, postings) Hashtbl.t;
  mutable all_ids : int array option;  (* lazily built for "*" lookups *)
}

let wildcard = "*"

let plen = function P_mem a -> Array.length a | P_map { len; _ } -> len

let pget p i =
  match p with
  | P_mem a -> Array.unsafe_get a i
  | P_map { base; off; _ } -> Int32.to_int (Bigarray.Array1.unsafe_get base (off + i))

let build doc =
  let buckets : (string, int list ref) Hashtbl.t = Hashtbl.create 64 in
  for i = Doc.size doc - 1 downto 0 do
    let tag = Doc.tag doc i in
    match Hashtbl.find_opt buckets tag with
    | Some l -> l := i :: !l
    | None -> Hashtbl.add buckets tag (ref [ i ])
  done;
  let by_tag = Hashtbl.create (Hashtbl.length buckets) in
  Hashtbl.iter
    (fun tag l -> Hashtbl.add by_tag tag (P_mem (Array.of_list !l)))
    buckets;
  { doc; by_tag; all_ids = None }

let of_mapped ~doc ~postings ~extents =
  let total = Bigarray.Array1.dim postings in
  let by_tag = Hashtbl.create (List.length extents * 2) in
  List.iter
    (fun (tag, off, len) ->
      if off < 0 || len < 0 || off + len > total then
        invalid_arg "Index.of_mapped: extent out of range";
      Hashtbl.replace by_tag tag (P_map { base = postings; off; len }))
    extents;
  { doc; by_tag; all_ids = None }

let doc t = t.doc
let empty = P_mem [||]
let empty_ids = [||]

let all t =
  match t.all_ids with
  | Some a -> a
  | None ->
      (* Identity postings for "*": every node, in document order.  A
         racing second builder computes the same array; the last
         single-field write wins harmlessly. *)
      let a = Array.init (Doc.size t.doc) Fun.id in
      t.all_ids <- Some a;
      a

let postings t tag =
  if String.equal tag wildcard then P_mem (all t)
  else Option.value (Hashtbl.find_opt t.by_tag tag) ~default:empty

let ids t tag =
  if String.equal tag wildcard then all t
  else
    match Hashtbl.find_opt t.by_tag tag with
    | None -> empty_ids
    | Some (P_mem a) -> a
    | Some (P_map _ as p) ->
        let n = plen p in
        Array.init n (fun i -> pget p i)

let count t tag = plen (postings t tag)
let postings_length = plen

(* One dispatch per read: the sweeps in [Wp_score.Tfidf] call this once
   per posting. *)
let[@inline] posting p i =
  match p with
  | P_mem a -> a.(i)
  | P_map { base; off; len } ->
      if i < 0 || i >= len then invalid_arg "Index.posting: out of range";
      Int32.to_int (Bigarray.Array1.unsafe_get base (off + i))

(* First position in [p] whose value is >= [v]. *)
let lower_bound p v =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if pget p mid < v then go (mid + 1) hi else go lo mid
  in
  go 0 (plen p)

let slice t tag ~root =
  let p = postings t tag in
  let lo = lower_bound p (root + 1) in
  let hi = lower_bound p (Doc.subtree_end t.doc root) in
  (p, lo, hi)

let subtree_slice t tag ~root =
  let _, lo, hi = slice t tag ~root in
  (lo, hi)

let iter_descendants t tag ~root f =
  let p, lo, hi = slice t tag ~root in
  for i = lo to hi - 1 do
    f (pget p i)
  done

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
