module Doc = Wp_xml.Doc
module Pattern = Wp_pattern.Pattern

(* Mutable build-time node: one per distinct label path. *)
type mnode = {
  m_tag : string;
  m_depth : int;
  mutable m_count : int;
  mutable m_min : int;
  mutable m_max : int;
  m_kids : (string, mnode) Hashtbl.t;
  mutable m_order : mnode list;  (* reverse insertion (document) order *)
}

(* Frozen guide: arrays indexed by guide-node preorder id. *)
type t = {
  tags : string array;
  depths : int array;
  counts : int array;
  min_ids : int array;
  max_ids : int array;
  kids : int array array;  (* guide children, document-discovery order *)
  height : int;
  doc_nodes : int;
}

let size t = Array.length t.tags
let height t = t.height
let doc_nodes t = t.doc_nodes
let count t g = t.counts.(g)

let mk_mnode tag depth id =
  {
    m_tag = tag;
    m_depth = depth;
    m_count = 1;
    m_min = id;
    m_max = id;
    m_kids = Hashtbl.create 4;
    m_order = [];
  }

let build doc =
  let n = Doc.size doc in
  if n = 0 then invalid_arg "Dataguide.build: empty document";
  let root = mk_mnode (Doc.tag doc 0) 0 0 in
  (* Path stack: [stack.(d)] is the guide node of the current node's
     ancestor at depth [d]. Depth is bounded by the node count. *)
  let stack = Array.make (max 1 n) root in
  let max_depth = ref 0 in
  for i = 1 to n - 1 do
    let d = Doc.depth doc i in
    if d > !max_depth then max_depth := d;
    let parent = stack.(d - 1) in
    let tag = Doc.tag doc i in
    let m =
      match Hashtbl.find_opt parent.m_kids tag with
      | Some m ->
          m.m_count <- m.m_count + 1;
          if i < m.m_min then m.m_min <- i;
          if i > m.m_max then m.m_max <- i;
          m
      | None ->
          let m = mk_mnode tag d i in
          Hashtbl.add parent.m_kids tag m;
          parent.m_order <- m :: parent.m_order;
          m
    in
    stack.(d) <- m
  done;
  (* Freeze: preorder ids, children in first-discovery order. *)
  let total = ref 0 in
  let rec count_nodes m =
    incr total;
    List.iter count_nodes m.m_order
  in
  count_nodes root;
  let ng = !total in
  let tags = Array.make ng "" in
  let depths = Array.make ng 0 in
  let counts = Array.make ng 0 in
  let min_ids = Array.make ng 0 in
  let max_ids = Array.make ng 0 in
  let kids = Array.make ng [||] in
  let next = ref 0 in
  let rec freeze m =
    let g = !next in
    incr next;
    tags.(g) <- m.m_tag;
    depths.(g) <- m.m_depth;
    counts.(g) <- m.m_count;
    min_ids.(g) <- m.m_min;
    max_ids.(g) <- m.m_max;
    (* Children in first-discovery order; ids must be assigned
       left-to-right, so map explicitly. *)
    let rec in_order = function
      | [] -> []
      | c :: tl ->
          let id = freeze c in
          id :: in_order tl
    in
    kids.(g) <- Array.of_list (in_order (List.rev m.m_order));
    g
  in
  let (_ : int) = freeze root in
  { tags; depths; counts; min_ids; max_ids; kids; height = !max_depth;
    doc_nodes = n }

(* One guide per document for the life of the process — same no-lock
   memo discipline as the plan-level synopsis cache. *)
let cache : t Doc.Tbl.t = Doc.Tbl.create 4

let of_index idx =
  let doc = Wp_xml.Index.doc idx in
  match Doc.Tbl.find_opt cache doc with
  | Some g -> g
  | None ->
      let g = build doc in
      Doc.Tbl.add cache doc g;
      g

type selection = {
  satisfiable : bool;
  depth_ok : bool array array;
  windows : (int * int) array array;
}

let wildcard = Wp_xml.Index.wildcard

(* Everything is admissible: the fallback when the pattern is too wide
   for the bitmask encoding (> 62 nodes — far beyond the paper's
   queries). *)
let select_all t pat =
  let p = Pattern.size pat in
  {
    satisfiable = true;
    depth_ok = Array.init p (fun _ -> Array.make (t.height + 1) true);
    windows = Array.init p (fun _ -> [| (0, t.doc_nodes - 1) |]);
  }

(* Merge sorted inclusive intervals, coalescing overlapping or adjacent
   ones. *)
let merge_windows intervals =
  let sorted = List.sort compare intervals in
  let rec go acc = function
    | [] -> List.rev acc
    | (lo, hi) :: rest -> (
        match acc with
        | (alo, ahi) :: tl when lo <= ahi + 1 ->
            go ((alo, max ahi hi) :: tl) rest
        | _ -> go ((lo, hi) :: acc) rest)
  in
  Array.of_list (go [] sorted)

let select t pat =
  let p = Pattern.size pat in
  let ng = size t in
  if p > 62 then select_all t pat
  else begin
    let pkids = Array.init p (fun q -> Pattern.children pat q) in
    (* Bottom-up over the guide: m.(g) has bit q set when the subtree of
       guide node g can embed the pattern subtree rooted at q with g
       binding q. child_u/sub_u are the unions of m over g's children
       and proper descendants. *)
    let m = Array.make ng 0 in
    let sub_u = Array.make ng 0 in
    let rec up g =
      let cu = ref 0 and su = ref 0 in
      Array.iter
        (fun c ->
          up c;
          cu := !cu lor m.(c);
          su := !su lor m.(c) lor sub_u.(c))
        t.kids.(g);
      sub_u.(g) <- !su;
      let mask = ref 0 in
      for q = 0 to p - 1 do
        let tag = Pattern.tag pat q in
        if String.equal tag t.tags.(g) || String.equal tag wildcard then
          let ok =
            List.for_all
              (fun c ->
                let bit = 1 lsl c in
                match Pattern.edge pat c with
                | Pattern.Pc -> !cu land bit <> 0
                | Pattern.Ad -> !su land bit <> 0)
              pkids.(q)
          in
          if ok then mask := !mask lor (1 lsl q)
      done;
      m.(g) <- !mask
    in
    up 0;
    (* Top-down selection: guide node g participates for pattern node q
       when some embedding consistent with the root edge places q at g. *)
    let selected = Array.init p (fun _ -> Array.make ng false) in
    let rec push q g =
      if not selected.(q).(g) then begin
        selected.(q).(g) <- true;
        List.iter
          (fun c ->
            let bit = 1 lsl c in
            match Pattern.edge pat c with
            | Pattern.Pc ->
                Array.iter
                  (fun g' -> if m.(g') land bit <> 0 then push c g')
                  t.kids.(g)
            | Pattern.Ad ->
                let rec desc g' =
                  Array.iter
                    (fun g'' ->
                      if m.(g'') land bit <> 0 then push c g'';
                      desc g'')
                    t.kids.(g')
                in
                desc g)
          pkids.(q)
      end
    in
    (* Seed pattern roots: the root edge relates the pattern root to the
       document root (guide node 0, depth 0) — Pc pins depth 1, Ad any
       depth >= 1, mirroring the engine's to_root test. *)
    let root_edge = Pattern.root_edge pat in
    for g = 1 to ng - 1 do
      if m.(g) land 1 <> 0 then begin
        let ok =
          match root_edge with
          | Pattern.Pc -> t.depths.(g) = 1
          | Pattern.Ad -> t.depths.(g) >= 1
        in
        if ok then push 0 g
      end
    done;
    let satisfiable = Array.exists Fun.id selected.(0) in
    let depth_ok =
      Array.init p (fun q ->
          let row = Array.make (t.height + 1) false in
          for g = 0 to ng - 1 do
            if selected.(q).(g) then row.(t.depths.(g)) <- true
          done;
          row)
    in
    let windows =
      Array.init p (fun q ->
          let acc = ref [] in
          for g = 0 to ng - 1 do
            if selected.(q).(g) then
              acc := (t.min_ids.(g), t.max_ids.(g)) :: !acc
          done;
          merge_windows !acc)
    in
    { satisfiable; depth_ok; windows }
  end

let pp ppf t =
  for g = 0 to size t - 1 do
    Format.fprintf ppf "%s%s ×%d [%d,%d]@."
      (String.make (2 * t.depths.(g)) ' ')
      t.tags.(g) t.counts.(g) t.min_ids.(g) t.max_ids.(g)
  done
