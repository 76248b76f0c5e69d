module Pattern = Wp_pattern.Pattern
module Relaxation = Wp_relax.Relaxation
module Relation = Wp_relax.Relation
module Server_spec = Wp_relax.Server_spec
module Score_table = Wp_score.Score_table
module Component_table = Wp_score.Component_table
module Index = Wp_xml.Index
module Doc = Wp_xml.Doc

type literal = { bits : Bytes.t; negated : bool }
type signature = literal array

type seed_class = {
  bound : float;
  weight : float;
  size : int;
  first_word : int;
  signatures : signature array;
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
  root_postings : Index.postings;
  root_candidates : Bytes.t;
  caps : cap array;
  seeds : seed_class array;
  n_servers : int;
  full_mask : int;
  est_fanout : float array;
  est_p_exact : float array;
  est_p_empty : float array;
}

(* Candidates for the pattern root: nodes with the right tag/value whose
   relation to the document root satisfies the (possibly relaxed) root
   edge, in document order, with bitsets over the tag's postings marking
   them, the ones at depth 1 and the ones whose value matches exactly.
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
      let n = Index.postings_length postings in
      let candidates = Component_table.sweep_create n
      and depth1 = Component_table.sweep_create n
      and content_exact = Component_table.sweep_create n in
      let keep = ref [] in
      for i = n - 1 downto 0 do
        let node = Index.posting postings i in
        let depth = Doc.depth doc node in
        if
          node <> Doc.root doc
          && Relation.test_depths rel ~anc_depth:doc_root_depth ~desc_depth:depth
        then begin
          let content =
            Relaxation.content_level_at config ~value:spec.value doc node
          in
          if content <> Relaxation.Content_reject then begin
            keep := node :: !keep;
            Component_table.sweep_set candidates i;
            if depth = 1 then Component_table.sweep_set depth1 i;
            if content = Relaxation.Content_exact then
              Component_table.sweep_set content_exact i
          end
        end
      done;
      {
        Component_table.nodes = Array.of_list !keep;
        candidates;
        depth1;
        content_exact;
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
   summed in. *)
let seed_rest t pos =
  let acc = ref 0.0 in
  for s = 1 to t.n_servers - 1 do
    acc := !acc +. cap_at t.caps.(s) ~pos
  done;
  !acc

(* The posting position of [root] when it is a root candidate, or -1. *)
let position t root =
  let pos = Index.lower_bound t.root_postings root in
  if
    pos < Index.postings_length t.root_postings
    && Index.posting t.root_postings pos = root
    && Component_table.sweep_mem t.root_candidates pos
  then pos
  else -1

let bound_of_root t ~root =
  let pos = position t root in
  if pos < 0 then Float.infinity else root_weight t root +. seed_rest t pos

let seed_cap t ~root s =
  let pos = position t root in
  if pos < 0 then t.caps.(s).exact_weight
  else Float.max 0.0 (cap_at t.caps.(s) ~pos)

(* Word [w] of a bitset: its postings [64 * w] to [64 * w + 63]. *)
let[@inline] word bits w = Bytes.get_int64_le bits (w lsl 3)

(* Word [w] of a signature's postings: the AND of its literals. *)
let[@inline] signature_word (sg : signature) w =
  let x = ref (-1L) in
  for j = 0 to Array.length sg - 1 do
    let l = sg.(j) in
    let v = word l.bits w in
    x := Int64.logand !x (if l.negated then Int64.lognot v else v)
  done;
  !x

(* Word [w] of the postings of any of [sigs]. *)
let[@inline] union_word (sigs : signature array) w =
  let x = ref 0L in
  for j = 0 to Array.length sigs - 1 do
    x := Int64.logor !x (signature_word sigs.(j) w)
  done;
  !x

let n_words t = Bytes.length t.root_candidates lsr 3

let next_root t sigs pos =
  let w = ref (pos lsr 6) and found = ref (-1) in
  (while !found < 0 && !w < n_words t do
     let m = union_word sigs !w in
     let m =
       if !w = pos lsr 6 then Int64.logand m (Int64.shift_left (-1L) (pos land 63))
       else m
     in
     if m <> 0L then found := (!w lsl 6) + Bits.lowest_bit m else incr w
   done)
  [@wp.bounded "[!w] advances one word per empty step, up to the last word"];
  !found

(* Word [w] of the live roots: the candidates no required server kills
   — the union of every level signature's postings. *)
let[@inline] live_word t w =
  let x = ref (word t.root_candidates w) in
  for s = 1 to t.n_servers - 1 do
    let c = t.caps.(s) in
    if c.none_weight = Float.neg_infinity then
      x := Int64.logand !x (Int64.logor (word c.exact w) (word c.accepted w))
  done;
  !x

let iter_live t f =
  for w = 0 to n_words t - 1 do
    let m = ref (live_word t w) in
    (while !m <> 0L do
       f ((w lsl 6) + Bits.lowest_bit !m);
       m := Int64.logand !m (Int64.pred !m)
     done)
    [@wp.bounded "every step clears one of the word's 64 bits"]
  done

(* The levels a root can take at server [s], each with the literals
   that select its postings and the weight it earns there: for the root
   server, the root's own exactness (the root edge and the value holding
   exactly, as [root_weight] tests them); for the others, an exact-level
   candidate below the root, else a relaxed one, else none — the three
   cases of [cap_at].  A required server has no "none" level: the roots
   there die. *)
let levels t (r : Component_table.roots) s =
  let is bits = { bits; negated = false } and isnt bits = { bits; negated = true } in
  let c = t.caps.(s) in
  if s = 0 then
    match Pattern.root_edge t.pattern with
    | Pattern.Ad ->
        [
          ([| is r.content_exact |], c.exact_weight);
          ([| isnt r.content_exact |], c.relaxed_weight);
        ]
    | Pattern.Pc ->
        [
          ([| is r.content_exact; is r.depth1 |], c.exact_weight);
          ([| isnt r.content_exact |], c.relaxed_weight);
          ([| is r.content_exact; isnt r.depth1 |], c.relaxed_weight);
        ]
  else
    (([| is c.exact |], c.exact_weight)
    :: (if c.accepted == c.exact then []
        else [ ([| is c.accepted; isnt c.exact |], c.relaxed_weight) ]))
    @
    if c.none_weight = Float.neg_infinity then []
    else [ ([| isnt c.exact; isnt c.accepted |], c.none_weight) ]

(* Partition refinement over the root candidates' postings, one word
   at a time: split the candidates on the root's exactness, then every
   group on each server's levels in turn, dropping the groups that come
   out empty.  A group at depth [s] keeps only its nonzero words
   ([words.(s)], 8 bytes each) with their positions ([at.(s)]), so a
   split reads no word where the group has no root, and ANDs the
   level's literals alone into the rest.  The refinement is depth
   first, so one buffer per depth serves every group there.  Each
   surviving group is one level signature, with its root weight and its
   bound summed as [bound_of_root] sums them. *)
let signature_classes t (r : Component_table.roots) =
  let n = n_words t and depth = t.n_servers in
  let levels = Array.init depth (levels t r) in
  let at =
    Array.init depth (fun s -> if s = 0 then Array.init n Fun.id else Array.make n 0)
  and words =
    Array.init depth (fun s -> if s = 0 then r.candidates else Bytes.create (n lsl 3))
  in
  let rec split s sg len weight rest acc =
    List.fold_left
      (fun acc (level, w) ->
        let weight, rest = if s = 0 then (w, 0.0) else (weight, rest +. w) in
        (* The last split needs only the counts, not the words. *)
        let last = s + 1 = depth in
        let m = ref 0 and size = ref 0 and first = ref (-1) in
        for j = 0 to len - 1 do
          let i = at.(s).(j) in
          let x = Int64.logand (word words.(s) j) (signature_word level i) in
          if x <> 0L then begin
            if !first < 0 then first := i;
            size := !size + Bits.popcount64 x;
            if not last then begin
              at.(s + 1).(!m) <- i;
              Bytes.set_int64_le words.(s + 1) (!m lsl 3) x;
              incr m
            end
          end
        done;
        if !size = 0 then acc
        else
          let sg = Array.append sg level in
          if last then
            {
              bound = weight +. rest;
              weight;
              size = !size;
              first_word = !first;
              signatures = [| sg |];
            }
            :: acc
          else split (s + 1) sg !m weight rest acc)
      acc levels.(s)
  in
  split 0 [| { bits = r.candidates; negated = false } |] n 0.0 0.0 []

(* The classes in the order a max-final-score queue holding every seed
   would pop them (priority, then tie = score, then insertion, which is
   document order): signatures sorted by bound and then root weight,
   both descending, those with equal ones merged into one class. *)
let seed_classes t r =
  let rec merge = function
    | a :: b :: rest when a.bound = b.bound && a.weight = b.weight ->
        merge
          ({
             a with
             size = a.size + b.size;
             first_word = min a.first_word b.first_word;
             signatures = Array.append a.signatures b.signatures;
           }
          :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  Array.of_list
    (merge
       (List.sort
          (fun a b ->
            match Float.compare b.bound a.bound with
            | 0 -> Float.compare b.weight a.weight
            | c -> c)
          (signature_classes t r)))

let n_classes t = Array.length t.seeds
let n_seeds t = Array.fold_left (fun n c -> n + c.size) 0 t.seeds

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
   first [sample] root candidates: one forward walk over the server's
   postings (the roots are in document order, so each root's slice
   starts at or after the previous one's start), testing every
   candidate's depth and content once. *)
let estimate config idx (specs : Server_spec.t array) roots =
  let doc = Index.doc idx in
  let n = Array.length specs in
  let est_fanout = Array.make n 1.0 in
  let est_p_exact = Array.make n 1.0 in
  let est_p_empty = Array.make n 0.0 in
  let n_sampled = min sample (Array.length roots) in
  if n_sampled > 0 then
    for s = 1 to n - 1 do
      let spec = specs.(s) in
      let rel = Server_spec.candidate_relation spec in
      let postings = Index.postings idx spec.tag in
      let len = Index.postings_length postings in
      let total = ref 0 and exact = ref 0 and empty = ref 0 and lo = ref 0 in
      for r = 0 to n_sampled - 1 do
        let root = roots.(r) in
        let anc_depth = Doc.depth doc root and stop = Doc.subtree_end doc root in
        let here = ref 0 in
        lo := Index.lower_bound_from postings ~from:!lo (root + 1);
        let i = ref !lo in
        (while !i < len && Index.posting postings !i < stop do
           let c = Index.posting postings !i in
           let desc_depth = Doc.depth doc c in
           (if Relation.test_depths rel ~anc_depth ~desc_depth then
              match Relaxation.content_level_at config ~value:spec.value doc c with
              | Relaxation.Content_reject -> ()
              | level ->
                  incr here;
                  if
                    level = Relaxation.Content_exact
                    && Relation.test_depths spec.to_root.exact ~anc_depth
                         ~desc_depth
                  then incr exact);
           incr i
         done)
        [@wp.bounded "[!i] advances to the end of the root's subtree"];
        total := !total + !here;
        if !here = 0 then incr empty
      done;
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
  Wp_analysis.Lint.validate_exn ~config ~specs pat;
  let scores = Score_table.build ~memo idx pat config normalization in
  let r = root_candidates memo config idx specs in
  let caps = caps memo idx config pat specs scores in
  let est_fanout, est_p_exact, est_p_empty =
    estimate config idx specs r.nodes
  in
  let t =
    {
      pattern = pat;
      config;
      specs;
      scores;
      index = idx;
      roots = r.nodes;
      root_postings = Index.postings idx specs.(0).tag;
      root_candidates = r.candidates;
      caps;
      seeds = [||];
      n_servers;
      full_mask = (1 lsl n_servers) - 1;
      est_fanout;
      est_p_exact;
      est_p_empty;
    }
  in
  { t with seeds = seed_classes t r }

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
