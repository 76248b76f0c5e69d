module Doc = Wp_xml.Doc
module Index = Wp_xml.Index
module Axis = Wp_xml.Axis

type embedding = Doc.node_id option array

let axis_of_edge = function Pattern.Pc -> Axis.Child | Pattern.Ad -> Axis.Descendant

let value_ok doc pat i n =
  match Pattern.value pat i with
  | None -> true
  | Some v -> Doc.value_equals doc n v

(* Candidate document nodes for pattern node [i], given the document node
   its pattern parent is bound to. *)
let candidates idx pat i ~from =
  let doc = Index.doc idx in
  let edge = if i = 0 then Pattern.root_edge pat else Pattern.edge pat i in
  let nodes = Axis.select idx (axis_of_edge edge) ~from ~tag:(Pattern.tag pat i) in
  List.filter (value_ok doc pat i) nodes

let root_candidates idx pat =
  candidates idx pat 0 ~from:(Doc.root (Index.doc idx))

let iter_embeddings idx pat f =
  let size = Pattern.size pat in
  let binding = Array.make size (-1) in
  let rec assign i =
    if i >= size then f (Array.copy binding)
    else begin
      let from =
        if i = 0 then Doc.root (Index.doc idx)
        else binding.(Option.get (Pattern.parent pat i))
      in
      let cands = candidates idx pat i ~from in
      List.iter
        (fun n ->
          binding.(i) <- n;
          assign (i + 1))
        cands
    end
  in
  assign 0

let count_embeddings idx pat =
  let n = ref 0 in
  iter_embeddings idx pat (fun _ -> incr n);
  !n

let matching_roots idx pat =
  let seen = Hashtbl.create 16 in
  iter_embeddings idx pat (fun b ->
      if not (Hashtbl.mem seen b.(0)) then Hashtbl.add seen b.(0) ());
  List.sort Stdlib.compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

let iter_outer_embeddings idx pat f =
  let size = Pattern.size pat in
  let binding : embedding = Array.make size None in
  (* Pattern ids are preorder ranks, so processing 0..size-1 visits every
     parent before its children.  The root is mandatory; below it, a node
     is bound whenever a satisfying document node exists under its bound
     parent, and left unbound (together with its whole pattern subtree)
     otherwise. *)
  let rec assign i =
    if i >= size then f (Array.copy binding)
    else begin
      match binding.(Option.get (Pattern.parent pat i)) with
      | None ->
          binding.(i) <- None;
          assign (i + 1)
      | Some from -> (
          match candidates idx pat i ~from with
          | [] ->
              binding.(i) <- None;
              assign (i + 1)
          | cands ->
              List.iter
                (fun n ->
                  binding.(i) <- Some n;
                  assign (i + 1))
                cands)
    end
  in
  List.iter
    (fun r ->
      binding.(0) <- Some r;
      assign 1)
    (root_candidates idx pat)

let count_outer_embeddings idx pat =
  let n = ref 0 in
  iter_outer_embeddings idx pat (fun _ -> incr n);
  !n
