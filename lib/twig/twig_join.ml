module Doc = Wp_xml.Doc
module Index = Wp_xml.Index
module Pattern = Wp_pattern.Pattern
module Dataguide = Wp_stats.Dataguide
module Score_table = Wp_score.Score_table
module Engine = Whirlpool.Engine
module Stats = Whirlpool.Stats
module Topk_set = Whirlpool.Topk_set
module Partial_match = Whirlpool.Partial_match
module Plan = Whirlpool.Plan
module Clock = Whirlpool.Clock

(* First index with xs.(i) >= target in a preorder-sorted array. *)
let lower_bound (xs : int array) target =
  let lo = ref 0 and hi = ref (Array.length xs) in
  (while !lo < !hi do
     let mid = (!lo + !hi) / 2 in
     if xs.(mid) < target then lo := mid + 1 else hi := mid
   done)
  [@wp.bounded "bisection halves the [lo, hi) interval every pass"];
  !lo

(* A read position in one pattern node's postings, restricted to the
   node's dataguide windows: [w] is the current window and [i] the next
   posting position to examine. *)
type cursor = {
  postings : Index.postings;
  wins : (int * int) array;
  mutable w : int;
  mutable i : int;
}

(* A cursor at the first posting [>= lo] inside the windows: the first
   window ending at or past [lo], then its first posting, each found by
   bisection. *)
let cursor_at postings wins lo =
  let a = ref 0 and b = ref (Array.length wins) in
  (while !a < !b do
     let mid = (!a + !b) / 2 in
     if snd wins.(mid) < lo then a := mid + 1 else b := mid
   done)
  [@wp.bounded "bisection halves the [a, b) interval every pass"];
  let i =
    if !a < Array.length wins then
      Index.lower_bound postings (max lo (fst wins.(!a)))
    else Index.postings_length postings
  in
  { postings; wins; w = !a; i }

(* Whether document node [x] may bind pattern node [q]: an admissible
   depth, the root edge's depth for the root, and the exact content
   value. *)
let admits ~(stats : Stats.t) ~doc ~pat ~(sel : Dataguide.selection) q x =
  let dok = sel.depth_ok.(q) in
  let d = Doc.depth doc x in
  d < Array.length dok
  && dok.(d)
  (* The root edge is a pure depth constraint against the document root
     (depth 0) — enforce it here even when the selection fell back to
     admit-everything. *)
  && (q <> 0
     ||
     match Pattern.root_edge pat with
     | Pattern.Pc -> d = 1
     | Pattern.Ad -> d >= 1)
  &&
  match Pattern.value pat q with
  | None -> true
  | Some v ->
      stats.comparisons <- stats.comparisons + 1;
      Doc.value_equals doc x v

(* Read the cursor's postings below node id [stop] into [out], keeping
   the admitted ones, until [out] is full or the windows run out;
   returns how many were kept.  Runs between windows are skipped by
   bisection without being examined.  Output stays preorder-sorted. *)
let scan ~(stats : Stats.t) ~admit c ~stop out =
  let n = Index.postings_length c.postings in
  let nw = Array.length c.wins in
  let limit = Array.length out in
  let n_out = ref 0 in
  let go = ref true in
  (while !go do
     if !n_out >= limit || c.w >= nw || c.i >= n then go := false
     else begin
       let x = Index.posting c.postings c.i in
       if x > snd c.wins.(c.w) then begin
         c.w <- c.w + 1;
         if c.w < nw then
           c.i <-
             Index.lower_bound_from c.postings ~from:c.i (fst c.wins.(c.w))
       end
       else if x >= stop then go := false
       else begin
         c.i <- c.i + 1;
         stats.server_ops <- stats.server_ops + 1;
         stats.comparisons <- stats.comparisons + 1;
         if admit x then begin
           out.(!n_out) <- x;
           incr n_out
         end
       end
     end
   done)
  [@wp.bounded "every pass advances [c.i] or [c.w], or ends the scan"];
  !n_out

let prefix xs n = if n = Array.length xs then xs else Array.sub xs 0 n

(* Stack sweep over two preorder-sorted streams: set [flag.(i)] when
   [xs.(i)] has a proper descendant among [ys].  [stack] holds indices
   into [xs] forming a chain of nested open subtrees (the linked-stack
   encoding); when a [y] arrives, every entry still on the stack
   contains it, so we mark top-down until the first already-marked
   entry — everything below was marked by an earlier [y].  Both scratch
   arrays are caller-owned with length >= |xs|. *)
let mark_has_descendant ~(stats : Stats.t) doc (xs : int array)
    (ys : int array) (flag : bool array) (stack : int array) =
  let nx = Array.length xs and ny = Array.length ys in
  let top = ref 0 in
  let i = ref 0 in
  (for j = 0 to ny - 1 do
    let y = ys.(j) in
    (* Open every x that starts before y, closing finished subtrees. *)
    while !i < nx && xs.(!i) < y do
      let x = xs.(!i) in
      stats.comparisons <- stats.comparisons + 1;
      while !top > 0 && Doc.subtree_end doc xs.(stack.(!top - 1)) <= x do
        decr top
      done;
      stack.(!top) <- !i;
      incr top;
      incr i
    done;
    (* Close subtrees that end at or before y. *)
    while !top > 0 && Doc.subtree_end doc xs.(stack.(!top - 1)) <= y do
      decr top
    done;
    stats.comparisons <- stats.comparisons + 1;
    (* Every remaining open x properly contains y. *)
    let s = ref (!top - 1) in
    let continue = ref true in
    while !s >= 0 && !continue do
      let idx = stack.(!s) in
      if flag.(idx) then continue := false
      else begin
        flag.(idx) <- true;
        decr s
      end
    done
  done)
  [@wp.bounded
    "every inner pass strictly advances [!i], shrinks the stack, or \
     descends [!s] toward an already-marked entry"]
[@@wp.hot]

(* Merge two sorted arrays: set [flag.(i)] when [xs.(i)] appears in
   [ps]. *)
let merge_mark ~(stats : Stats.t) (xs : int array) (ps : int array)
    (flag : bool array) =
  let nx = Array.length xs and np = Array.length ps in
  let i = ref 0 and j = ref 0 in
  (while !i < nx && !j < np do
    stats.comparisons <- stats.comparisons + 1;
    let x = xs.(!i) and pv = ps.(!j) in
    if x = pv then begin
      flag.(!i) <- true;
      incr i;
      incr j
    end
    else if x < pv then incr i
    else incr j
  done)
  [@wp.bounded "[!i + !j] strictly increases every pass"]
[@@wp.hot]

(* Sorted, deduplicated parents of a preorder-sorted node array. *)
let parent_set doc (ys : int array) =
  let n = Array.length ys in
  let ps = Array.make (max 1 n) (-1) in
  let m = ref 0 in
  Array.iter
    (fun y ->
      match Doc.parent doc y with
      | Some p ->
          ps.(!m) <- p;
          incr m
      | None -> ())
    ys;
  let ps = Array.sub ps 0 !m in
  Array.sort compare ps;
  let out = ref 0 in
  Array.iteri
    (fun i p ->
      if i = 0 || p <> ps.(i - 1) then begin
        ps.(!out) <- p;
        incr out
      end)
    ps;
  Array.sub ps 0 !out

(* Keep, in place, the nodes of [xs] (pattern node [q]'s stream) that
   head a complete exact embedding of q's pattern subtree, given the
   match sets of q's children. *)
let join_node ~(stats : Stats.t) doc pat (msets : int array array) q xs =
  match Pattern.children pat q with
  | [] -> xs
  | kids ->
      let nx = Array.length xs in
      let ok_count = Array.make (max 1 nx) 0 in
      let flag = Array.make (max 1 nx) false in
      let scratch = Array.make (max 1 nx) 0 in
      List.iter
        (fun c ->
          Array.fill flag 0 nx false;
          (match Pattern.edge pat c with
          | Pattern.Ad ->
              mark_has_descendant ~stats doc xs msets.(c) flag scratch
          | Pattern.Pc -> merge_mark ~stats xs (parent_set doc msets.(c)) flag);
          for i = 0 to nx - 1 do
            if flag.(i) then ok_count.(i) <- ok_count.(i) + 1
          done)
        kids;
      let nkids = List.length kids in
      let n_keep = ref 0 in
      for i = 0 to nx - 1 do
        if ok_count.(i) = nkids then begin
          xs.(!n_keep) <- xs.(i);
          incr n_keep
        end
      done;
      prefix xs !n_keep

(* The windowed join.  The root stream is read in windows in document
   order: the first holds [first] roots and each later one twice as many
   as the one before.  Per window, msets.(q) is the preorder-sorted set
   of nodes heading a complete exact embedding of the pattern subtree at
   q, evaluated bottom-up (pattern ids are preorder ranks, so a
   reverse-id sweep puts children first) over streams clipped to
   [first root, max subtree end over the window's roots).  Roots nest,
   so the last root's end can fall short of an earlier one's.  A node
   inside a window root's subtree has its whole subtree in that range,
   so its match-set membership, and every witness below the root, is
   what the full join computes.  [on_window msets] sees each window's
   match sets (msets.(0): its matched roots) and returns true to stop.
   Returns false when [should_stop] fired before a window. *)
let join ~(stats : Stats.t) ~should_stop ~guide (plan : Plan.t) ~first
    ~on_window =
  let doc = Index.doc plan.index in
  let pat = plan.pattern in
  let p = Pattern.size pat in
  let sel = Dataguide.select guide pat in
  if not sel.satisfiable then true
  else begin
    let postings =
      Array.init p (fun q -> Index.postings plan.index (Pattern.tag pat q))
    in
    let admit = Array.init p (fun q -> admits ~stats ~doc ~pat ~sel q) in
    let roots = cursor_at postings.(0) sel.windows.(0) 0 in
    let msets = Array.make p [||] in
    let rec window w =
      if should_stop () then false
      else begin
        let left = Index.postings_length postings.(0) - roots.i in
        let xs = Array.make (max 0 (min w left)) 0 in
        let n = scan ~stats ~admit:admit.(0) roots ~stop:max_int xs in
        if n = 0 then true
        else begin
          let xs = prefix xs n in
          let lo = xs.(0) in
          let hi =
            Array.fold_left (fun m x -> max m (Doc.subtree_end doc x)) lo xs
          in
          (* Every pattern node is required: once one match set is
             empty, no root of the window matches. *)
          let dead = ref false in
          for q = p - 1 downto 1 do
            if not !dead then begin
              let c = cursor_at postings.(q) sel.windows.(q) lo in
              let ys =
                Array.make (max 0 (Index.lower_bound postings.(q) hi - c.i)) 0
              in
              let ys = prefix ys (scan ~stats ~admit:admit.(q) c ~stop:hi ys) in
              let res = join_node ~stats doc pat msets q ys in
              msets.(q) <- res;
              stats.matches_created <- stats.matches_created + Array.length res;
              if Array.length res = 0 then dead := true
            end
          done;
          let res =
            if !dead then [||] else join_node ~stats doc pat msets 0 xs
          in
          msets.(0) <- res;
          stats.matches_created <- stats.matches_created + Array.length res;
          if on_window msets || n < w then true
          else window (if w > max_int / 2 then max_int else 2 * w)
        end
      end
    in
    window first
  end

(* One witness embedding under a matched root, found greedily: for each
   child edge take the first match-set node inside the parent's subtree
   that satisfies the axis.  Membership in the match sets guarantees
   one exists. *)
let witness ~(stats : Stats.t) doc pat (msets : int array array) root =
  let p = Pattern.size pat in
  let b = Array.make p Partial_match.unbound in
  let rec bind q x =
    b.(q) <- x;
    List.iter
      (fun c ->
        let ys = msets.(c) in
        let ny = Array.length ys in
        let stop = Doc.subtree_end doc x in
        let i = ref (lower_bound ys (x + 1)) in
        let found = ref (-1) in
        (match Pattern.edge pat c with
        | Pattern.Ad ->
            stats.comparisons <- stats.comparisons + 1;
            if !i < ny && ys.(!i) < stop then found := ys.(!i)
        | Pattern.Pc ->
            while !found < 0 && !i < ny && ys.(!i) < stop do
              stats.comparisons <- stats.comparisons + 1;
              (match Doc.parent doc ys.(!i) with
              | Some px when px = x -> found := ys.(!i)
              | _ -> ());
              incr i
            done);
        if !found < 0 then
          invalid_arg "Twig_join: missing witness (internal invariant)";
        bind c !found)
      (Pattern.children pat q)
  in
  bind 0 root;
  b

let guide_of ?guide (plan : Plan.t) =
  match guide with Some g -> g | None -> Dataguide.of_index plan.index

let match_count ?guide (plan : Plan.t) =
  let count = ref 0 in
  ignore
    (join ~stats:(Stats.create ()) ~should_stop:Engine.never_stop
       ~guide:(guide_of ?guide plan) plan ~first:max_int
       ~on_window:(fun msets ->
         count := !count + Array.length msets.(0);
         false));
  !count

let run ?(config = Engine.Config.default) ?guide (plan : Plan.t) ~k =
  if k < 1 then invalid_arg "Twig_join.run: k must be >= 1";
  let stats = Stats.create () in
  let t0 = Clock.now_ns () in
  let doc = Index.doc plan.index in
  let pat = plan.pattern in
  let score = Score_table.max_total plan.scores in
  let answers = ref [] and n_ans = ref 0 in
  let on_window (msets : int array array) =
    let roots = msets.(0) in
    stats.completed <- stats.completed + Array.length roots;
    Array.iter
      (fun root ->
        if !n_ans < k then begin
          incr n_ans;
          answers :=
            {
              Topk_set.root;
              score;
              match_id = !n_ans;
              bindings = witness ~stats doc pat msets root;
              progress = Pattern.size pat;
            }
            :: !answers
        end)
      roots;
    !n_ans >= k
  in
  let finished =
    join ~stats ~should_stop:config.Engine.Config.should_stop
      ~guide:(guide_of ?guide plan) plan ~first:k ~on_window
  in
  stats.wall_ns <- Int64.sub (Clock.now_ns ()) t0;
  if finished then
    { Engine.answers = List.rev !answers; stats; partial = false }
  else { Engine.answers = []; stats; partial = true }
