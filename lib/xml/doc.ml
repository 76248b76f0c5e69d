type node_id = int

(* Two physical representations behind one interface:

   - [Mem]: the classical frozen arrays, built by [of_tree] and friends —
     everything materialized, including Dewey labels.
   - [Ext]: an externally-backed view (in practice: a memory-mapped
     on-disk index from [Wp_storage]); per-node facts are fetched through
     accessor closures over the mapped columns, and Dewey labels are
     reconstructed on demand from the stored child ranks.  Nothing here
     depends on how the backing store is implemented, which keeps this
     library free of [Unix] and lets tests back a document with plain
     functions. *)

type ext = {
  ext_size : int;
  ext_tag : int -> string;
  ext_value : int -> string option;
  ext_parent : int -> int;  (* -1 for the root *)
  ext_subtree_end : int -> int;  (* exclusive *)
  ext_depth : int -> int;
  ext_rank : int -> int;  (* 1-based child rank; 0 for the root *)
  ext_tags : string list;  (* distinct tags, first-occurrence order *)
}

type mem = {
  tags : string array;
  values : string option array;
  deweys : Dewey.t array;
  parents : int array;  (* -1 for the root *)
  subtree_ends : int array;  (* exclusive *)
}

type t = Mem of mem | Ext of ext

let of_tree tree =
  let n = Tree.size tree in
  let tags = Array.make n "" in
  let values = Array.make n None in
  let deweys = Array.make n Dewey.root in
  let parents = Array.make n (-1) in
  let subtree_ends = Array.make n 0 in
  (* Preorder numbering; [next] is the next free id. *)
  let next = ref 0 in
  let rec assign parent dewey (node : Tree.t) =
    let id = !next in
    incr next;
    tags.(id) <- Tree.tag node;
    values.(id) <- Tree.value node;
    deweys.(id) <- dewey;
    parents.(id) <- parent;
    List.iteri
      (fun i child -> assign id (Dewey.child dewey (i + 1)) child)
      (Tree.children node);
    subtree_ends.(id) <- !next
  in
  assign (-1) Dewey.root tree;
  Mem { tags; values; deweys; parents; subtree_ends }

let of_forest ?(root_tag = "doc-root") trees =
  of_tree (Tree.el root_tag trees)

let of_components ~tags ~values ~parents =
  let n = Array.length tags in
  if Array.length values <> n || Array.length parents <> n then
    invalid_arg "Doc.of_components: array lengths differ";
  if n = 0 then invalid_arg "Doc.of_components: empty document";
  if parents.(0) <> -1 then
    invalid_arg "Doc.of_components: node 0 must be the root";
  for i = 1 to n - 1 do
    if parents.(i) < 0 || parents.(i) >= i then
      invalid_arg "Doc.of_components: parents must precede children"
  done;
  (* Subtree extents: scanning ids backwards, a child's extent is final
     before its parent's is read. *)
  let subtree_ends = Array.init n (fun i -> i + 1) in
  for i = n - 1 downto 1 do
    let p = parents.(i) in
    if subtree_ends.(i) > subtree_ends.(p) then
      subtree_ends.(p) <- subtree_ends.(i)
  done;
  (* Dewey labels from per-parent child ranks. *)
  let next_rank = Array.make n 0 in
  let deweys = Array.make n Dewey.root in
  for i = 1 to n - 1 do
    let p = parents.(i) in
    next_rank.(p) <- next_rank.(p) + 1;
    deweys.(i) <- Dewey.child deweys.(p) next_rank.(p)
  done;
  Mem
    {
      tags = Array.copy tags;
      values = Array.copy values;
      deweys;
      parents = Array.copy parents;
      subtree_ends;
    }

let of_ext ~size ~tag ~value ~parent ~subtree_end ~depth ~rank ~distinct_tags =
  if size < 1 then invalid_arg "Doc.of_ext: empty document";
  Ext
    {
      ext_size = size;
      ext_tag = tag;
      ext_value = value;
      ext_parent = parent;
      ext_subtree_end = subtree_end;
      ext_depth = depth;
      ext_rank = rank;
      ext_tags = distinct_tags;
    }

let root _ = 0
let size = function Mem d -> Array.length d.tags | Ext e -> e.ext_size

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash d = Hashtbl.hash (size d)
end)

let tag t i = match t with Mem d -> d.tags.(i) | Ext e -> e.ext_tag i
let value t i = match t with Mem d -> d.values.(i) | Ext e -> e.ext_value i

(* Reconstruct a mapped node's Dewey label by collecting child ranks up
   the parent chain — O(depth), only paid on answer rendering and axis
   diagnostics, never in the engines' structural hot path (which uses
   [depth]/[subtree_end]/[is_ancestor]). *)
let ext_dewey e i =
  let d = e.ext_depth i in
  let ranks = Array.make d 0 in
  let rec fill j lvl =
    if lvl >= 0 then begin
      ranks.(lvl) <- e.ext_rank j;
      fill (e.ext_parent j) (lvl - 1)
    end
  in
  fill i (d - 1);
  Dewey.of_array ranks

let dewey t i = match t with Mem d -> d.deweys.(i) | Ext e -> ext_dewey e i

let parent t i =
  let p = match t with Mem d -> d.parents.(i) | Ext e -> e.ext_parent i in
  if p < 0 then None else Some p

let depth t i =
  match t with Mem d -> Dewey.depth d.deweys.(i) | Ext e -> e.ext_depth i

let subtree_end t i =
  match t with Mem d -> d.subtree_ends.(i) | Ext e -> e.ext_subtree_end i

let children t i =
  let stop = subtree_end t i in
  let rec loop j acc =
    if j >= stop then List.rev acc else loop (subtree_end t j) (j :: acc)
  in
  loop (i + 1) []

let is_parent t ~parent:p ~child:c =
  (match t with Mem d -> d.parents.(c) | Ext e -> e.ext_parent c) = p

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

let distinct_tags = function
  | Ext e -> e.ext_tags
  | Mem d ->
      let seen = Hashtbl.create 16 in
      let out = ref [] in
      Array.iter
        (fun t ->
          if not (Hashtbl.mem seen t) then begin
            Hashtbl.add seen t ();
            out := t :: !out
          end)
        d.tags;
      List.rev !out

let pp_node t ppf i =
  Format.fprintf ppf "%s[%a]" (tag t i) Dewey.pp (dewey t i);
  match value t i with
  | None -> ()
  | Some v -> Format.fprintf ppf "(%s)" v
