type t = {
  plan : Plan.t;
  stats : Stats.t;
  mutable cls : int;  (* the head class; past the last when none is left *)
  mutable left : int;  (* its unopened roots *)
  mutable next : int;  (* where the scan for its next root resumes *)
}

let goto t cls =
  t.cls <- cls;
  if cls < Array.length t.plan.seeds then begin
    t.left <- t.plan.seeds.(cls).size;
    t.next <- t.plan.seeds.(cls).first_word * 64
  end

let create (plan : Plan.t) (stats : Stats.t) =
  if Invariants.enabled () then Invariants.check_table plan.scores;
  let n = Array.length plan.roots in
  stats.server_ops <- stats.server_ops + 1;
  stats.comparisons <- stats.comparisons + n;
  stats.matches_created <- stats.matches_created + n;
  stats.matches_died <- stats.matches_died + (n - Plan.n_seeds plan);
  let t = { plan; stats; cls = 0; left = 0; next = 0 } in
  goto t 0;
  t

let head t =
  if t.cls < Array.length t.plan.seeds then t.plan.seeds.(t.cls).bound
  else Float.neg_infinity

let beats t queue =
  t.cls < Array.length t.plan.seeds
  &&
  let c = t.plan.seeds.(t.cls) and p = Pqueue.max_priority queue in
  c.bound > p || (c.bound = p && c.weight >= Pqueue.max_tie queue)

let seed t ~next_id pos =
  let root = Wp_xml.Index.posting t.plan.root_postings pos in
  t.stats.seeds_materialized <- t.stats.seeds_materialized + 1;
  Partial_match.create_root ~plan_servers:t.plan.n_servers ~id:(next_id ())
    ~root ~weight:(Plan.root_weight t.plan root)
    ~max_rest:(Plan.seed_rest t.plan pos)

let open_next t topk ~next_id =
  if t.cls >= Array.length t.plan.seeds then None
  else begin
    let c = t.plan.seeds.(t.cls) in
    if Topk_set.prunes_bound topk c.bound then begin
      t.stats.matches_pruned <- t.stats.matches_pruned + t.left;
      goto t (t.cls + 1);
      None
    end
    else begin
      let pos = Plan.next_root t.plan c.signatures t.next in
      if Invariants.enabled () then Invariants.check_class t.plan c pos;
      t.next <- pos + 1;
      t.left <- t.left - 1;
      if t.left = 0 then goto t (t.cls + 1);
      Some (seed t ~next_id pos)
    end
  end

(* A single-node pattern's seed completes; one the set prunes counts
   as pruned. *)
let admit t topk (pm : Partial_match.t) =
  if Invariants.enabled () then Invariants.check_root t.plan pm;
  Server.offer t.plan t.stats topk ~trace:None pm

let rec pop t topk queue ~next_id ~trace ~stop ~popped =
  if beats t queue then
    if stop () then None
    else
      match open_next t topk ~next_id with
      | Some pm as seed when admit t topk pm ->
          popped pm;
          seed
      | Some _ | None -> pop t topk queue ~next_id ~trace ~stop ~popped
  else if Pqueue.is_empty queue || stop () then None
  else
    match Pqueue.pop queue with
    | None -> None
    | Some pm as top ->
        popped pm;
        if Server.prune t.stats topk ~trace pm then
          pop t topk queue ~next_id ~trace ~stop ~popped
        else top

let drain t ~next_id =
  let seeds = t.plan.seeds in
  if t.cls > 0 || (Array.length seeds > 0 && t.left < seeds.(0).size) then
    invalid_arg "Seeds.drain: the cursor already opened a class";
  let acc = ref [] in
  Plan.iter_live t.plan (fun pos -> acc := seed t ~next_id pos :: !acc);
  goto t (Array.length seeds);
  List.rev !acc
