type entry = {
  root : int;
  score : float;
  match_id : int;
  bindings : int array;
  progress : int;  (* servers visited when the snapshot was taken *)
  complete : bool;  (* the snapshot had visited every server *)
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
  floor : float;  (* fixed score bar: a match below it is pruned *)
  by_root : (int, entry) Hashtbl.t;  (* at most k bindings *)
  heap : Min_heap.t;  (* (score, root) items, lazily pruned *)
  mutable best_since_mark : float;  (* best score stored since [mark] *)
}

let create ?(floor = Float.neg_infinity) ~k ~admit_partial () =
  if k < 1 then invalid_arg "Topk_set.create: k must be positive";
  {
    k;
    admit_partial;
    floor;
    by_root = Hashtbl.create (2 * k);
    heap = Min_heap.create (2 * k);
    best_since_mark = Float.neg_infinity;
  }

let k t = t.k
let cardinality t = Hashtbl.length t.by_root

(* Lookups return this sentinel (compared physically) instead of an
   option: the prune path runs once per extension and must not
   allocate. *)
let no_entry =
  {
    root = -1;
    score = Float.nan;
    match_id = -1;
    bindings = [||];
    progress = 0;
    complete = false;
  }

let find t root =
  match Hashtbl.find t.by_root root with
  | e -> e
  | exception Not_found -> no_entry
[@@wp.hot]

(* The live minimum entry, [no_entry] when the set is empty: pop stale
   heap items until the top one matches a current table entry.  Every
   live entry's current score was pushed when it was set, so the first
   live item is the true minimum. *)
let rec min_entry t =
  if t.heap.Min_heap.size = 0 then no_entry
  else
    let e = find t t.heap.Min_heap.roots.(0) in
    if e != no_entry && e.score = t.heap.Min_heap.scores.(0) then e
    else begin
      Min_heap.drop_min t.heap;
      min_entry t
    end
[@@wp.hot]
[@@wp.bounded
  "each recursive step drops one stale heap item; the heap size strictly \
   decreases"]

let threshold t =
  if Hashtbl.length t.by_root < t.k then neg_infinity
  else
    let e = min_entry t in
    if e == no_entry then neg_infinity else e.score
[@@wp.hot]

(* Entries are built only on the branches that store them: under
   relaxed semantics every extension is offered, and most are turned
   away. *)
let store t ~complete (pm : Partial_match.t) root =
  let entry =
    {
      root;
      score = pm.score;
      match_id = pm.id;
      bindings = Array.copy pm.bindings;
      progress = Partial_match.n_visited pm;
      complete;
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
    let existing = find t root in
    (if existing != no_entry then begin
       (* Equal scores prefer the more-processed match, so the reported
          bindings reflect a maximal match rather than an early partial
          snapshot. *)
       if pm.score > existing.score then begin
         store t ~complete pm root;
         Min_heap.push t.heap pm.score root
       end
       else if
         pm.score = existing.score
         && Partial_match.n_visited pm > existing.progress
       then
         (* Same score: the existing heap item stays valid. *)
         store t ~complete pm root
     end
     else if Hashtbl.length t.by_root < t.k then begin
       store t ~complete pm root;
       Min_heap.push t.heap pm.score root
     end
     else begin
       let m = min_entry t in
       if m != no_entry && pm.score > m.score then begin
         Hashtbl.remove t.by_root m.root;
         store t ~complete pm root;
         Min_heap.push t.heap pm.score root
       end
     end);
    match threshold_before with
    | Some before -> Invariants.check_threshold ~before ~after:(threshold t)
    | None -> ()
  end

(* The tie rule and own-root dominance read one lookup of the match's
   root; the interface says why each is sound. *)
let should_prune t (pm : Partial_match.t) =
  pm.max_possible < t.floor ||
  let theta = threshold t in
  pm.max_possible < theta ||
  let e = find t (Partial_match.root_binding pm) in
  if e == no_entry then pm.max_possible = theta
  else
    e.match_id <> pm.id
    && pm.max_possible <= e.score
    && (e.complete || pm.max_possible = theta)
[@@wp.hot]

let prunes_bound t bound = bound <= threshold t || bound < t.floor

let retract t (pm : Partial_match.t) =
  let root = Partial_match.root_binding pm in
  let e = find t root in
  if e != no_entry && e.match_id = pm.id then begin
    (* The dominance rule pruned matches against this entry on the
       promise that it stays. *)
    if e.complete then invalid_arg "Topk_set.retract: complete entry";
    Hashtbl.remove t.by_root root
  end

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
