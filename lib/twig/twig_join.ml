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

(* The per-pattern-node input stream: the tag's postings, read in
   place, clipped to the dataguide windows (each window's first posting
   is found by bisection; runs outside any window are skipped without
   being examined) and filtered by admissible depth, root-edge depth and
   exact content value.  Output stays preorder-sorted. *)
let build_stream ~(stats : Stats.t) ~doc ~idx ~pat ~(sel : Dataguide.selection)
    q =
  let wins = sel.windows.(q) in
  if Array.length wins = 0 then [||]
  else begin
    let postings = Index.postings idx (Pattern.tag pat q) in
    let n = Index.postings_length postings in
    let dok = sel.depth_ok.(q) in
    let value = Pattern.value pat q in
    let is_root = q = 0 in
    let root_edge = Pattern.root_edge pat in
    let out = Array.make (max 1 n) 0 in
    let n_out = ref 0 in
    Array.iter
      (fun (lo, hi) ->
        let i = ref (Index.lower_bound postings lo) in
        (while !i < n && Index.posting postings !i <= hi do
          let x = Index.posting postings !i in
          incr i;
          stats.server_ops <- stats.server_ops + 1;
          stats.comparisons <- stats.comparisons + 1;
          let d = Doc.depth doc x in
          let ok = d < Array.length dok && dok.(d) in
          (* The root edge is a pure depth constraint against the
             document root (depth 0) — enforce it here even when the
             selection fell back to admit-everything. *)
          let ok =
            ok
            && (not is_root
               ||
               match root_edge with Pattern.Pc -> d = 1 | Pattern.Ad -> d >= 1)
          in
          let ok =
            ok
            &&
            match value with
            | None -> true
            | Some v -> (
                stats.comparisons <- stats.comparisons + 1;
                Doc.value_equals doc x v)
          in
          if ok then begin
            out.(!n_out) <- x;
            incr n_out
          end
        done)
        [@wp.bounded "[!i] strictly advances toward the end of the postings"])
      wins;
    Array.sub out 0 !n_out
  end

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

(* Bottom-up match-set evaluation: msets.(q) is the preorder-sorted set
   of document nodes heading a complete exact embedding of the pattern
   subtree rooted at q (the root's set additionally honors the root
   edge, folded into its stream).  Children are evaluated before
   parents — pattern ids are preorder ranks, so a reverse-id sweep
   suffices.  Returns [None] when [should_stop] fired. *)
let eval ~(stats : Stats.t) ~should_stop ~guide (plan : Plan.t) =
  let doc = Index.doc plan.index in
  let pat = plan.pattern in
  let p = Pattern.size pat in
  let sel = Dataguide.select guide pat in
  let msets = Array.make p [||] in
  if not sel.satisfiable then Some msets
  else begin
    let stopped = ref false in
    (try
       for q = p - 1 downto 0 do
         if should_stop () then begin
           stopped := true;
           raise Exit
         end;
         let xs = build_stream ~stats ~doc ~idx:plan.index ~pat ~sel q in
         let res =
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
                   | Pattern.Pc ->
                       merge_mark ~stats xs (parent_set doc msets.(c)) flag);
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
               Array.sub xs 0 !n_keep
         in
         msets.(q) <- res;
         stats.matches_created <- stats.matches_created + Array.length res
       done
     with Exit -> ());
    if !stopped then None else Some msets
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

let match_count ?guide (plan : Plan.t) =
  let guide =
    match guide with Some g -> g | None -> Dataguide.of_index plan.index
  in
  let stats = Stats.create () in
  match eval ~stats ~should_stop:Engine.never_stop ~guide plan with
  | Some msets -> Array.length msets.(0)
  | None -> 0

let run ?(config = Engine.Config.default) ?guide (plan : Plan.t) ~k =
  if k < 1 then invalid_arg "Twig_join.run: k must be >= 1";
  Engine.validate_plan plan;
  let stats = Stats.create () in
  let t0 = Clock.now_ns () in
  let guide =
    match guide with Some g -> g | None -> Dataguide.of_index plan.index
  in
  let doc = Index.doc plan.index in
  let pat = plan.pattern in
  match
    eval ~stats ~should_stop:config.Engine.Config.should_stop ~guide plan
  with
  | None ->
      stats.wall_ns <- Int64.sub (Clock.now_ns ()) t0;
      { Engine.answers = []; stats; partial = true }
  | Some msets ->
      let roots = msets.(0) in
      stats.completed <- Array.length roots;
      let score = Score_table.max_total plan.scores in
      let n_ans = min k (Array.length roots) in
      let answers =
        List.init n_ans (fun i ->
            let root = roots.(i) in
            {
              Topk_set.root;
              score;
              match_id = i + 1;
              bindings = witness ~stats doc pat msets root;
              progress = Pattern.size pat;
            })
      in
      stats.wall_ns <- Int64.sub (Clock.now_ns ()) t0;
      { Engine.answers; stats; partial = false }
