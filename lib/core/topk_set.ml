type entry = {
  root : int;
  score : float;
  match_id : int;
  bindings : int array;
  progress : int;  (* servers visited when the snapshot was taken *)
}

(* Min-heap over (score, root) with lazy deletion: [consider] pushes an
   item whenever an entry's current score is set, and stale items (the
   entry was evicted, retracted, or its score has moved on) are dropped
   when they surface at the top.  Each table modification pushes at most
   one item and each item is popped at most once, so threshold queries
   are O(log m) amortized instead of the previous O(k) hashtable fold —
   [should_prune] runs once per extension, making this the engines'
   hottest read path. *)
module Min_heap = struct
  type t = {
    mutable scores : float array;
    mutable roots : int array;
    mutable size : int;
  }

  let create cap =
    let cap = max cap 4 in
    { scores = Array.make cap 0.0; roots = Array.make cap 0; size = 0 }

  let swap h i j =
    let s = h.scores.(i) and r = h.roots.(i) in
    h.scores.(i) <- h.scores.(j);
    h.roots.(i) <- h.roots.(j);
    h.scores.(j) <- s;
    h.roots.(j) <- r

  let push h score root =
    if h.size = Array.length h.scores then begin
      let cap = 2 * h.size in
      let scores = Array.make cap 0.0 and roots = Array.make cap 0 in
      Array.blit h.scores 0 scores 0 h.size;
      Array.blit h.roots 0 roots 0 h.size;
      h.scores <- scores;
      h.roots <- roots
    end;
    h.scores.(h.size) <- score;
    h.roots.(h.size) <- root;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    (while
       !i > 0
       &&
       let p = (!i - 1) / 2 in
       h.scores.(p) > h.scores.(!i)
     do
       let p = (!i - 1) / 2 in
       swap h p !i;
       i := p
     done)
    [@wp.bounded "sift-up: !i moves to its parent each pass, strictly \
                  decreasing toward 0"]

  let drop_min h =
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.scores.(0) <- h.scores.(h.size);
      h.roots.(0) <- h.roots.(h.size);
      let i = ref 0 in
      let continue = ref true in
      (while !continue do
         let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
         let smallest = ref !i in
         if l < h.size && h.scores.(l) < h.scores.(!smallest) then smallest := l;
         if r < h.size && h.scores.(r) < h.scores.(!smallest) then smallest := r;
         if !smallest = !i then continue := false
         else begin
           swap h !i !smallest;
           i := !smallest
         end
       done)
      [@wp.bounded "sift-down: !i moves to a strictly deeper child each \
                    pass, bounded by the heap depth"]
    end
end

type t = {
  k : int;
  admit_partial : bool;
  by_root : (int, entry) Hashtbl.t;  (* at most k bindings *)
  heap : Min_heap.t;  (* (score, root) items, lazily pruned *)
  mutable best_since_mark : float;  (* best score stored since [mark] *)
}

let create ~k ~admit_partial =
  if k < 1 then invalid_arg "Topk_set.create: k must be positive";
  {
    k;
    admit_partial;
    by_root = Hashtbl.create (2 * k);
    heap = Min_heap.create (2 * k);
    best_since_mark = Float.neg_infinity;
  }

let k t = t.k
let cardinality t = Hashtbl.length t.by_root

(* The live minimum entry: pop stale heap items until the top one
   matches a current table entry.  Every live entry's current score was
   pushed when it was set, so the first live item is the true minimum. *)
let rec min_entry t =
  if t.heap.Min_heap.size = 0 then None
  else
    let score = t.heap.Min_heap.scores.(0)
    and root = t.heap.Min_heap.roots.(0) in
    match Hashtbl.find_opt t.by_root root with
    | Some e when e.score = score -> Some e
    | Some _ | None ->
        Min_heap.drop_min t.heap;
        min_entry t
[@@wp.hot]
[@@wp.bounded
  "each recursive step drops one stale heap item; the heap size strictly \
   decreases"]

let threshold t =
  if Hashtbl.length t.by_root < t.k then neg_infinity
  else match min_entry t with None -> neg_infinity | Some e -> e.score
[@@wp.hot]

(* Entries are built only on the branches that store them: under
   relaxed semantics every extension is offered, and most are turned
   away. *)
let store t (pm : Partial_match.t) root =
  let entry =
    {
      root;
      score = pm.score;
      match_id = pm.id;
      bindings = Array.copy pm.bindings;
      progress = Partial_match.n_visited pm;
    }
  in
  Hashtbl.replace t.by_root root entry;
  if entry.score > t.best_since_mark then t.best_since_mark <- entry.score

let consider t ~complete (pm : Partial_match.t) =
  if complete || t.admit_partial then begin
    let threshold_before =
      if Invariants.enabled () then Some (threshold t) else None
    in
    let root = Partial_match.root_binding pm in
    (match Hashtbl.find_opt t.by_root root with
    | Some existing ->
        (* Equal scores prefer the more-processed match, so the reported
           bindings reflect a maximal match rather than an early partial
           snapshot. *)
        if pm.score > existing.score then begin
          store t pm root;
          Min_heap.push t.heap pm.score root
        end
        else if
          pm.score = existing.score
          && Partial_match.n_visited pm > existing.progress
        then
          (* Same score: the existing heap item stays valid. *)
          store t pm root
    | None ->
        if Hashtbl.length t.by_root < t.k then begin
          store t pm root;
          Min_heap.push t.heap pm.score root
        end
        else begin
          match min_entry t with
          | Some m when pm.score > m.score ->
              Hashtbl.remove t.by_root m.root;
              store t pm root;
              Min_heap.push t.heap pm.score root
          | Some _ | None -> ()
        end);
    match threshold_before with
    | Some before -> Invariants.check_threshold ~before ~after:(threshold t)
    | None -> ()
  end

let should_prune t (pm : Partial_match.t) =
  let theta = threshold t in
  if pm.max_possible < theta then true
  else if pm.max_possible > theta then false
  else
    (* A match that can at best tie the threshold can still improve the
       entry holding its own root, but cannot displace any other
       entry. *)
    match Hashtbl.find_opt t.by_root (Partial_match.root_binding pm) with
    | Some e -> pm.max_possible <= e.score && e.match_id <> pm.id
    | None -> true
[@@wp.hot]

let retract t (pm : Partial_match.t) =
  let root = Partial_match.root_binding pm in
  match Hashtbl.find_opt t.by_root root with
  | Some e when e.match_id = pm.id -> Hashtbl.remove t.by_root root
  | Some _ | None -> ()

let best_since_mark t = t.best_since_mark
let mark t = t.best_since_mark <- Float.neg_infinity

let entries t =
  let compare_entries a b =
    match Float.compare b.score a.score with
    | 0 -> Int.compare a.root b.root
    | c -> c
  in
  List.sort compare_entries
    (Hashtbl.fold (fun _ e acc -> e :: acc) t.by_root [])

let pp ppf t =
  Format.fprintf ppf "@[<v>top-%d (threshold %.4f):@," t.k (threshold t);
  List.iteri
    (fun i e -> Format.fprintf ppf "%d. root=%d score=%.4f@," (i + 1) e.root e.score)
    (entries t);
  Format.fprintf ppf "@]"
