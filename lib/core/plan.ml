module Pattern = Wp_pattern.Pattern
module Relaxation = Wp_relax.Relaxation
module Relation = Wp_relax.Relation
module Server_spec = Wp_relax.Server_spec
module Score_table = Wp_score.Score_table
module Component_table = Wp_score.Component_table
module Index = Wp_xml.Index
module Doc = Wp_xml.Doc

type seeds = {
  class_ids : Bytes.t;
  id_width : int;
  class_sizes : int array;
  class_bounds : float array;
  class_weights : float array;
}

type cap = {
  exact : Bytes.t;
  accepted : Bytes.t;
  exact_weight : float;
  relaxed_weight : float;
  none_weight : float;
}

type t = {
  pattern : Pattern.t;
  config : Relaxation.config;
  specs : Server_spec.t array;
  scores : Score_table.t;
  index : Index.t;
  roots : Doc.node_id array;
  root_positions : int array;
  caps : cap array;
  seeds : seeds;
  n_servers : int;
  full_mask : int;
  est_fanout : float array;
  est_p_exact : float array;
  est_p_empty : float array;
}

(* Content acceptance under the configuration. *)
let value_ok config doc value n =
  Relaxation.content_level_at config ~value doc n <> Relaxation.Content_reject

(* Candidates for the pattern root: nodes with the right tag/value whose
   relation to the document root satisfies the (possibly relaxed) root
   edge, in document order, with their positions in the tag's postings.
   Content acceptance reads only the configuration's
   [value_relaxation], so that completes the key. *)
let root_candidates memo config idx (specs : Server_spec.t array) =
  let doc = Index.doc idx in
  let spec = specs.(0) in
  let rel = Server_spec.candidate_relation spec in
  let key =
    {
      Component_table.tag = spec.tag;
      value = spec.value;
      relation = rel;
      value_relaxation = config.Relaxation.value_relaxation;
    }
  in
  Component_table.roots memo key ~compute:(fun () ->
      let doc_root_depth = Doc.depth doc (Doc.root doc) in
      let postings = Index.postings idx spec.tag in
      let keep = ref [] in
      for i = Index.postings_length postings - 1 downto 0 do
        let n = Index.posting postings i in
        if
          n <> Doc.root doc
          && Relation.test_depths rel ~anc_depth:doc_root_depth
               ~desc_depth:(Doc.depth doc n)
          && value_ok config doc spec.value n
        then keep := i :: !keep
      done;
      let positions = Array.of_list !keep in
      {
        Component_table.nodes = Array.map (Index.posting postings) positions;
        positions;
      })

(* Exact when the root edge holds exactly below the document root
   (depth 0) and the value matches exactly. *)
let root_weight t root =
  let doc = Index.doc t.index and spec = t.specs.(0) and c = t.caps.(0) in
  if
    Relation.test_depths spec.to_root.exact ~anc_depth:0
      ~desc_depth:(Doc.depth doc root)
    && Relaxation.content_level_at t.config ~value:spec.value doc root
       = Relaxation.Content_exact
  then c.exact_weight
  else c.relaxed_weight

(* The cap of a server for the root at posting [pos]: what the best
   binding below that root can earn there.  [neg_infinity] marks a
   required server with no candidate: every match of the root dies
   there. *)
let cap_at c ~pos =
  if Component_table.sweep_mem c.exact pos then c.exact_weight
  else if Component_table.sweep_mem c.accepted pos then c.relaxed_weight
  else c.none_weight

(* The caps summed in server order, the one order every seed bound is
   summed in.  Inlined, so that [group_seeds] boxes no float per root. *)
let[@inline] seed_rest t i =
  let pos = t.root_positions.(i) in
  let acc = ref 0.0 in
  for s = 1 to t.n_servers - 1 do
    acc := !acc +. cap_at t.caps.(s) ~pos
  done;
  !acc

let seed_bound t i = root_weight t t.roots.(i) +. seed_rest t i

(* Index of [root] in [roots] (sorted), or -1. *)
let rec find_root roots root lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let r = roots.(mid) in
    if r = root then mid
    else if r < root then find_root roots root (mid + 1) hi
    else find_root roots root lo mid

let seed_cap t ~root s =
  let i = find_root t.roots root 0 (Array.length t.roots) in
  if i < 0 then t.caps.(s).exact_weight
  else Float.max 0.0 (cap_at t.caps.(s) ~pos:t.root_positions.(i))

(* Per-root class ids, [id_width] bytes each (little-endian), the
   all-ones value marking a killed root: a plan keeps one or two bytes
   per root, not a word. *)
let killed_id width = (1 lsl (8 * width)) - 1

let get_id ids width i =
  match width with
  | 1 -> Bytes.get_uint8 ids i
  | 2 -> Bytes.get_uint16_le ids (2 * i)
  | _ -> Int32.to_int (Bytes.get_int32_le ids (4 * i)) land 0xFFFF_FFFF

let set_id ids width i v =
  match width with
  | 1 -> Bytes.set_uint8 ids i v
  | 2 -> Bytes.set_uint16_le ids (2 * i) v
  | _ -> Bytes.set_int32_le ids (4 * i) (Int32.of_int v)

let seed_class t i =
  let { class_ids; id_width; _ } = t.seeds in
  let c = get_id class_ids id_width i in
  if c = killed_id id_width then -1 else c

(* Group the live roots (those no required server kills) by seed bound
   and then root weight, both descending — the order a max-final-score
   queue holding every seed would pop them in (priority, then tie =
   score, then insertion, which is document order).  One pass finds
   each root's key among the few distinct ones, then only the keys are
   sorted. *)
let group_seeds t =
  let n = Array.length t.roots in
  let kb = ref (Array.make 8 0.0) and kw = ref (Array.make 8 0.0) in
  let d = ref 0 in
  let prev = ref (-1) in
  (* The key of root [i], found among the distinct ones (most often its
     predecessor's), added when new; -1 for a killed root. *)
  let key_of i =
    let w = root_weight t t.roots.(i) in
    let b = w +. seed_rest t i in
    if b = Float.neg_infinity then -1
    else begin
      let c = ref (-1) in
      if !prev >= 0 && !kb.(!prev) = b && !kw.(!prev) = w then c := !prev
      else begin
        let j = ref 0 in
        (while !c < 0 && !j < !d do
           if !kb.(!j) = b && !kw.(!j) = w then c := !j;
           incr j
         done)
        [@wp.bounded "[!j] counts up to the number of distinct keys"]
      end;
      if !c < 0 then begin
        if !d = Array.length !kb then begin
          kb := Array.append !kb !kb;
          kw := Array.append !kw !kw
        end;
        !kb.(!d) <- b;
        !kw.(!d) <- w;
        c := !d;
        incr d
      end;
      prev := !c;
      !c
    end
  in
  let key = Array.init n key_of in
  let ranked = Array.init !d Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare !kb.(b) !kb.(a) with
      | 0 -> Float.compare !kw.(b) !kw.(a)
      | c -> c)
    ranked;
  let rank = Array.make !d 0 in
  Array.iteri (fun r c -> rank.(c) <- r) ranked;
  let id_width = if !d < 0xFF then 1 else if !d < 0xFFFF then 2 else 4 in
  let class_ids = Bytes.create (id_width * n) in
  let class_sizes = Array.make !d 0 in
  Array.iteri
    (fun i c ->
      if c < 0 then set_id class_ids id_width i (killed_id id_width)
      else begin
        let r = rank.(c) in
        set_id class_ids id_width i r;
        class_sizes.(r) <- class_sizes.(r) + 1
      end)
    key;
  {
    class_ids;
    id_width;
    class_sizes;
    class_bounds = Array.map (fun c -> !kb.(c)) ranked;
    class_weights = Array.map (fun c -> !kw.(c)) ranked;
  }

let bound_of_root t ~root =
  let i = find_root t.roots root 0 (Array.length t.roots) in
  if i < 0 then Float.infinity else seed_bound t i

let n_classes t = Array.length t.seeds.class_bounds
let n_seeds t = Array.fold_left ( + ) 0 t.seeds.class_sizes

(* Each non-root server's cap inputs: the sweeps of its exact and
   relaxed components, read through the memo, and its weights; index 0
   (the root server) is unused. *)
let caps memo idx config pat specs scores =
  let components = Wp_score.Component.of_pattern pat in
  Array.mapi
    (fun s (c : Wp_score.Component.t) ->
      let e = Score_table.entry scores s in
      let none_weight =
        if (specs.(s) : Server_spec.t).optional then 0.0 else Float.neg_infinity
      in
      if s = 0 then
        {
          exact = Bytes.empty;
          accepted = Bytes.empty;
          exact_weight = e.exact_weight;
          relaxed_weight = e.relaxed_weight;
          none_weight;
        }
      else
        let exact = (Wp_score.Tfidf.sweep ~memo idx c).bits in
        let accepted =
          if Wp_score.Component.relaxed_differs config c then
            (Wp_score.Tfidf.sweep ~memo idx (Wp_score.Component.relaxed config c))
              .bits
          else exact
        in
        {
          exact;
          accepted;
          exact_weight = e.exact_weight;
          relaxed_weight = e.relaxed_weight;
          none_weight;
        })
    components

(* Root candidates inspected for the routing estimates. *)
let sample = 100

(* Estimate fan-out, exactness and emptiness of each server over the
   first [sample] root candidates. *)
let estimate config idx (specs : Server_spec.t array) roots =
  let doc = Index.doc idx in
  let n = Array.length specs in
  let est_fanout = Array.make n 1.0 in
  let est_p_exact = Array.make n 1.0 in
  let est_p_empty = Array.make n 0.0 in
  let n_sampled = min sample (Array.length roots) in
  let sampled = Array.sub roots 0 n_sampled in
  if n_sampled > 0 then
    for s = 1 to n - 1 do
      let spec = specs.(s) in
      let rel = Server_spec.candidate_relation spec in
      let total = ref 0 and exact = ref 0 and empty = ref 0 in
      Array.iter
        (fun root ->
          let root_depth = Doc.depth doc root in
          let here = ref 0 in
          Index.iter_descendants idx spec.tag ~root (fun c ->
              if
                Relation.test_depths rel ~anc_depth:root_depth
                  ~desc_depth:(Doc.depth doc c)
                && value_ok config doc spec.value c
              then begin
                incr here;
                if
                  Relation.test_depths spec.to_root.exact ~anc_depth:root_depth
                    ~desc_depth:(Doc.depth doc c)
                  && Relaxation.content_level_at config ~value:spec.value doc c
                     = Relaxation.Content_exact
                then incr exact
              end);
          total := !total + !here;
          if !here = 0 then incr empty)
        sampled;
      est_fanout.(s) <- float_of_int !total /. float_of_int n_sampled;
      est_p_exact.(s) <-
        (if !total = 0 then 1.0 else float_of_int !exact /. float_of_int !total);
      est_p_empty.(s) <- float_of_int !empty /. float_of_int n_sampled
    done;
  (est_fanout, est_p_exact, est_p_empty)

let compile ?(normalization = Wp_score.Score_table.Sparse)
    ?(memo = Component_table.create ()) idx config pat =
  let n_servers = Pattern.size pat in
  if n_servers > Sys.int_size - 2 then
    invalid_arg "Plan.compile: pattern too large for bitmask bookkeeping";
  let specs = Server_spec.build config pat in
  let scores = Score_table.build ~memo idx pat config normalization in
  let { Component_table.nodes = roots; positions } =
    root_candidates memo config idx specs
  in
  let caps = caps memo idx config pat specs scores in
  let est_fanout, est_p_exact, est_p_empty = estimate config idx specs roots in
  let t =
    {
      pattern = pat;
      config;
      specs;
      scores;
      index = idx;
      roots;
      root_positions = positions;
      caps;
      seeds =
        {
          class_ids = Bytes.empty;
          id_width = 1;
          class_sizes = [||];
          class_bounds = [||];
          class_weights = [||];
        };
      n_servers;
      full_mask = (1 lsl n_servers) - 1;
      est_fanout;
      est_p_exact;
      est_p_empty;
    }
  in
  { t with seeds = group_seeds t }

let admits_partial_answers t =
  t.config.leaf_deletion || t.config.subtree_promotion

let max_weight t s = (Score_table.entry t.scores s).exact_weight

let pp ppf t =
  Format.fprintf ppf "@[<v>plan: %s (%a)@," (Pattern.to_string t.pattern)
    Relaxation.pp_config t.config;
  Array.iteri
    (fun s spec ->
      Format.fprintf ppf "%a@,  fanout=%.2f p_exact=%.2f p_empty=%.2f w=%.3f/%.3f@,"
        Server_spec.pp spec t.est_fanout.(s) t.est_p_exact.(s) t.est_p_empty.(s)
        (Score_table.entry t.scores s).exact_weight
        (Score_table.entry t.scores s).relaxed_weight)
    t.specs;
  Format.fprintf ppf "seeds: %d of %d roots in %d bound classes@]" (n_seeds t)
    (Array.length t.roots) (n_classes t)
