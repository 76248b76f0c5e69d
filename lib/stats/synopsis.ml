module Doc = Wp_xml.Doc
module Relation = Wp_relax.Relation

let depth_cap = 16

(* Per ordered tag pair: histogram of (ancestor, descendant) pair counts
   by depth difference; length depth_cap, the last bucket is >= cap. *)
type t = {
  total_nodes : int;
  tag_counts : (string, int) Hashtbl.t;
  pairs : (string * string, int array) Hashtbl.t;
}

let wildcard = Wp_xml.Index.wildcard
let bucket d = if d >= depth_cap then depth_cap - 1 else d

let by_depth t key =
  match Hashtbl.find_opt t.pairs key with
  | Some h -> h
  | None ->
      let h = Array.make depth_cap 0 in
      Hashtbl.add t.pairs key h;
      h

let build doc =
  let t =
    {
      total_nodes = Doc.size doc;
      tag_counts = Hashtbl.create 64;
      pairs = Hashtbl.create 256;
    }
  in
  (* Ancestor tag stack, grown on demand. *)
  let anc_tags = ref (Array.make 64 "") in
  let ensure depth =
    if depth >= Array.length !anc_tags then begin
      let bigger = Array.make (2 * Array.length !anc_tags) "" in
      Array.blit !anc_tags 0 bigger 0 (Array.length !anc_tags);
      anc_tags := bigger
    end
  in
  let rec visit node depth =
    let tag = Doc.tag doc node in
    Hashtbl.replace t.tag_counts tag
      (1 + Option.value (Hashtbl.find_opt t.tag_counts tag) ~default:0);
    (* One (ancestor, this) pair per ancestor, bucketed by depth gap. *)
    for i = 0 to depth - 1 do
      let h = by_depth t ((!anc_tags).(i), tag) in
      let b = bucket (depth - i - 1) in
      h.(b) <- h.(b) + 1
    done;
    ensure depth;
    (!anc_tags).(depth) <- tag;
    List.iter (fun c -> visit c (depth + 1)) (Doc.children doc node)
  in
  visit (Doc.root doc) 0;
  t

let tag_count t tag =
  if String.equal tag wildcard then t.total_nodes
  else Option.value (Hashtbl.find_opt t.tag_counts tag) ~default:0

let pair_raw t ~anc ~desc ~depth =
  match Hashtbl.find_opt t.pairs (anc, desc) with
  | None -> 0
  | Some h -> h.(bucket depth)

let all_tags t = Hashtbl.fold (fun tag _ acc -> tag :: acc) t.tag_counts []

let pair_count t ~anc ~desc ~depth =
  let depth = bucket depth in
  match (String.equal anc wildcard, String.equal desc wildcard) with
  | false, false -> pair_raw t ~anc ~desc ~depth
  | true, false ->
      List.fold_left
        (fun acc a -> acc + pair_raw t ~anc:a ~desc ~depth)
        0 (all_tags t)
  | false, true ->
      List.fold_left
        (fun acc d -> acc + pair_raw t ~anc ~desc:d ~depth)
        0 (all_tags t)
  | true, true ->
      Hashtbl.fold (fun _ h acc -> acc + h.(depth)) t.pairs 0

let pairs_in_relation t ~anc ~desc (r : Relation.t) =
  (* Depths beyond the cap share the last bucket, so both bounds clamp
     to it: a relation demanding depth > cap still admits every pair
     recorded there (conservative for satisfiability tests). *)
  let lo = min r.min_depth depth_cap in
  let hi =
    match r.max_depth with Some m -> min m depth_cap | None -> depth_cap
  in
  let total = ref 0 in
  for d = lo to hi do
    total := !total + pair_count t ~anc ~desc ~depth:(d - 1)
  done;
  !total

let distinct_tags t = List.sort String.compare (all_tags t)

let pp ppf t =
  Format.fprintf ppf "@[<v>synopsis: %d nodes, %d tags, %d tag pairs@,"
    t.total_nodes (Hashtbl.length t.tag_counts) (Hashtbl.length t.pairs);
  List.iter
    (fun tag -> Format.fprintf ppf "%-16s %d@," tag (tag_count t tag))
    (distinct_tags t);
  Format.fprintf ppf "@]"
