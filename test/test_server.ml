open Whirlpool

let idx = Fixtures.books_index
let parse = Fixtures.parse

let make_plan ?(config = Wp_relax.Relaxation.all) q =
  Run.compile ~config ~normalization:Wp_score.Score_table.Sparse idx (parse q)

let id_gen () =
  let n = ref 100 in
  fun () -> incr n; !n

(* The root server's eager output: every live root's seed, in
   document order. *)
let drain plan stats =
  Seeds.drain (Seeds.create plan stats) ~next_id:(id_gen ())

let initial plan = drain plan (Stats.create ())

let book_a, book_b, book_c =
  match Fixtures.book_roots with
  | [ a; b; c ] -> (a, b, c)
  | _ -> assert false

let test_initial_matches () =
  let plan = make_plan Fixtures.q2a in
  let stats = Stats.create () in
  let ms = drain plan stats in
  Alcotest.(check int) "one match per book" 3 (List.length ms);
  Alcotest.(check (list int)) "roots in document order" [ book_a; book_b; book_c ]
    (List.map Partial_match.root_binding ms);
  Alcotest.(check int) "counted as one op" 1 stats.server_ops;
  Alcotest.(check int) "created" 3 stats.matches_created;
  List.iter
    (fun pm ->
      Alcotest.(check bool) "only root visited" true
        (Partial_match.visited pm 0 && not (Partial_match.visited pm 1)))
    ms

let empty_set () = Topk_set.create ~k:1 ~admit_partial:true ()

(* A full one-entry set whose threshold is [score]. *)
let set_at score =
  let t = empty_set () in
  Topk_set.consider t ~complete:true
    (Partial_match.create_root ~plan_servers:1 ~id:0 ~root:(-1) ~weight:score
       ~max_rest:0.0);
  t

(* The cursor opens the head class's roots one at a time, with the
   class's bound and weight; a class that cannot beat the threshold
   dies whole, its unopened roots counted as pruned. *)
let test_seed_cursor () =
  let plan = make_plan Fixtures.q2a in
  let stats = Stats.create () in
  let seeds = Seeds.create plan stats in
  let next_id = id_gen () in
  Alcotest.(check int) "one root-server op" 1 stats.server_ops;
  Alcotest.(check int) "no seed built yet" 0 stats.seeds_materialized;
  let c = plan.seeds.(0) in
  Alcotest.(check (float 0.0)) "head = first class's bound" c.bound (Seeds.head seeds);
  let queue = Pqueue.create () in
  Alcotest.(check bool) "beats an empty queue" true (Seeds.beats seeds queue);
  Pqueue.push queue ~tie:(c.weight +. 1.0) c.bound ();
  Alcotest.(check bool) "loses a tie to a higher score" false (Seeds.beats seeds queue);
  Pqueue.clear queue;
  Pqueue.push queue ~tie:c.weight c.bound ();
  Alcotest.(check bool) "wins a full tie" true (Seeds.beats seeds queue);
  (match Seeds.open_next seeds (empty_set ()) ~next_id with
  | None -> Alcotest.fail "the head class has a root"
  | Some pm ->
      Alcotest.(check (float 0.0)) "seed starts at the class bound" c.bound
        pm.max_possible;
      Alcotest.(check (float 0.0)) "and scores its root weight" c.weight pm.score;
      Alcotest.(check bool) "admitted" true
        (Seeds.admit seeds (empty_set ()) pm));
  Alcotest.(check int) "one seed built" 1 stats.seeds_materialized;
  Alcotest.check_raises "no drain after an open"
    (Invalid_argument "Seeds.drain: the cursor already opened a class")
    (fun () -> ignore (Seeds.drain seeds ~next_id));
  (* Kill every class left: each goes in one call. *)
  let rec kill n =
    if Seeds.head seeds = Float.neg_infinity then n
    else begin
      Alcotest.(check bool) "a dying class builds nothing" true
        (Seeds.open_next seeds (set_at (Seeds.head seeds)) ~next_id = None);
      kill (n + 1)
    end
  in
  let killed = kill 0 in
  Alcotest.(check bool) "at most one call per class" true
    (killed <= Plan.n_classes plan);
  Alcotest.(check int) "the rest pruned unbuilt" (Plan.n_seeds plan - 1)
    stats.matches_pruned;
  Alcotest.(check int) "still one seed built" 1 stats.seeds_materialized;
  Alcotest.(check bool) "an empty cursor opens nothing" true
    (Seeds.open_next seeds (empty_set ()) ~next_id = None);
  Alcotest.(check bool) "and beats nothing" false (Seeds.beats seeds queue)

(* The set's floor kills a class whose bound is strictly below it,
   whole and unbuilt, while a bound equal to it survives; the floor is
   no part of the threshold. *)
let test_seed_floor () =
  let plan = make_plan Fixtures.q2a in
  let c = plan.seeds.(0) in
  let floored floor = Topk_set.create ~floor ~k:1 ~admit_partial:true () in
  let stats = Stats.create () in
  let seeds = Seeds.create plan stats in
  let above = floored (Float.succ c.bound) in
  Alcotest.(check (float 0.0)) "threshold ignores the floor" Float.neg_infinity
    (Topk_set.threshold above);
  Alcotest.(check bool) "a class below the floor builds nothing" true
    (Seeds.open_next seeds above ~next_id:(id_gen ()) = None);
  Alcotest.(check int) "its roots pruned unbuilt" c.size stats.matches_pruned;
  Alcotest.(check int) "no seed built" 0 stats.seeds_materialized;
  Alcotest.(check (float 0.0)) "the cursor moves to the next class"
    (if Array.length plan.seeds > 1 then plan.seeds.(1).bound
     else Float.neg_infinity)
    (Seeds.head seeds);
  let seeds = Seeds.create plan (Stats.create ()) in
  Alcotest.(check bool) "a bound equal to the floor opens" true
    (Seeds.open_next seeds (floored c.bound) ~next_id:(id_gen ()) <> None)

let test_extension_binds () =
  let plan = make_plan Fixtures.q2a in
  let stats = Stats.create () in
  let pm_a = List.hd (initial plan) in
  (* server 1 = title='wodehouse' *)
  let { Server.extensions; died } =
    Server.process plan stats ~next_id:(id_gen ()) pm_a ~server:1
  in
  Alcotest.(check bool) "alive" false died;
  Alcotest.(check int) "one title binding" 1 (List.length extensions);
  let ext = List.hd extensions in
  Alcotest.(check bool) "bound" true (Partial_match.bound ext 1 <> None);
  (* exact child binding earns the exact (sparse = 1.0) weight *)
  Alcotest.(check (float 1e-9)) "score grew by 1" (pm_a.score +. 1.0) ext.score;
  Alcotest.(check (float 1e-9)) "max unchanged on exact binding"
    pm_a.max_possible ext.max_possible

let test_relaxed_binding_scores_less () =
  let plan = make_plan Fixtures.q2a in
  let stats = Stats.create () in
  (* book (c): its wodehouse title sits under reviews — a relaxed
     (descendant) binding for the child predicate. *)
  let pm_c =
    List.find (fun pm -> Partial_match.root_binding pm = book_c) (initial plan)
  in
  let { Server.extensions; _ } =
    Server.process plan stats ~next_id:(id_gen ()) pm_c ~server:1
  in
  Alcotest.(check int) "one binding" 1 (List.length extensions);
  let ext = List.hd extensions in
  let relaxed_w = (Wp_score.Score_table.entry plan.scores 1).relaxed_weight in
  Alcotest.(check (float 1e-9)) "relaxed weight earned" (pm_c.score +. relaxed_w)
    ext.score;
  (* Book (c)'s seed bound already counts only the relaxed weight for
     the title server, so the binding leaves [max_possible] where it
     was, below the loose all-exact bound. *)
  Alcotest.(check (float 1e-9)) "max unchanged" pm_c.max_possible
    ext.max_possible;
  Alcotest.(check bool) "seed bound below the all-exact bound" true
    (pm_c.max_possible
    < pm_c.score +. Wp_score.Score_table.max_total plan.scores
      -. (Wp_score.Score_table.entry plan.scores 0).exact_weight)

let test_optional_unbound_extension () =
  let plan = make_plan Fixtures.q2a in
  let stats = Stats.create () in
  (* book (c) has no publisher at all: server 3 must produce an unbound
     extension under leaf deletion. *)
  let pm_c =
    List.find (fun pm -> Partial_match.root_binding pm = book_c) (initial plan)
  in
  let { Server.extensions; died } =
    Server.process plan stats ~next_id:(id_gen ()) pm_c ~server:3
  in
  Alcotest.(check bool) "alive" false died;
  Alcotest.(check int) "single unbound extension" 1 (List.length extensions);
  let ext = List.hd extensions in
  Alcotest.(check (option int)) "unbound" None (Partial_match.bound ext 3);
  Alcotest.(check (float 1e-9)) "no score" pm_c.score ext.score

let test_exact_mode_death () =
  let plan = make_plan ~config:Wp_relax.Relaxation.exact Fixtures.q2a in
  let stats = Stats.create () in
  (* Book (c) has no publisher, so the required publisher server kills
     it at seed time: it gets no seed and counts as died. *)
  let seeded = drain plan stats in
  Alcotest.(check bool) "book (c) not seeded" false
    (List.exists (fun pm -> Partial_match.root_binding pm = book_c) seeded);
  Alcotest.(check int) "killed roots recorded as died"
    (3 - List.length seeded) stats.matches_died;
  Stats.reset stats;
  (* A match for it built by hand still dies at the server. *)
  let pm_c =
    Partial_match.create_root ~plan_servers:plan.n_servers ~id:1 ~root:book_c
      ~weight:1.0 ~max_rest:(float_of_int (plan.n_servers - 1))
  in
  let { Server.extensions; died } =
    Server.process plan stats ~next_id:(id_gen ()) pm_c ~server:3
  in
  Alcotest.(check bool) "died" true died;
  Alcotest.(check int) "no extensions" 0 (List.length extensions);
  Alcotest.(check int) "death recorded" 1 stats.matches_died;
  (* In exact mode even the title server rejects book (c): the title is
     not a child. *)
  let { Server.died = died_title; _ } =
    Server.process plan stats ~next_id:(id_gen ()) pm_c ~server:1
  in
  Alcotest.(check bool) "title rejects nested binding" true died_title

let test_hard_conditionals_without_promotion () =
  (* Without promotion, a bound ancestor constrains candidates: book (b)'s
     publisher is not under info, so binding info first then asking for
     publisher must fail (and deletion is blocked by the bound
     descendant rule in the other direction). *)
  let config =
    {
      Wp_relax.Relaxation.edge_generalization = true;
      leaf_deletion = true;
      subtree_promotion = false;
      value_relaxation = false;
    }
  in
  let plan = make_plan ~config Fixtures.q2a in
  let stats = Stats.create () in
  let pm_b =
    List.find (fun pm -> Partial_match.root_binding pm = book_b) (initial plan)
  in
  (* Bind info (server 2) first. *)
  let { Server.extensions; _ } =
    Server.process plan stats ~next_id:(id_gen ()) pm_b ~server:2
  in
  let with_info =
    List.find (fun pm -> Partial_match.bound pm 2 <> None) extensions
  in
  (* Now the publisher server (3): without promotion the candidate
     relation keeps its minimum depth of 2, so book (b)'s depth-1
     publisher is rejected and (the name being unbound) the node is
     deleted instead. *)
  let { Server.extensions; _ } =
    Server.process plan stats ~next_id:(id_gen ()) with_info ~server:3
  in
  Alcotest.(check (list bool)) "publisher stays unbound"
    [ true ]
    (List.map (fun pm -> Partial_match.bound pm 3 = None) extensions)

let test_deletion_blocked_by_bound_descendant () =
  let config =
    {
      Wp_relax.Relaxation.edge_generalization = true;
      leaf_deletion = true;
      subtree_promotion = false;
      value_relaxation = false;
    }
  in
  (* Pattern nodes: 0 book, 1 info, 2 name. *)
  let plan = make_plan ~config "/book[./info/name = 'psmith']" in
  let stats = Stats.create () in
  let pm_b =
    List.find (fun pm -> Partial_match.root_binding pm = book_b) (initial plan)
  in
  (* Bind name (server 2) first: book (b)'s psmith sits at depth 2 under
     its publisher child, accepted by the generalized depth->=2
     relation. *)
  let { Server.extensions; _ } =
    Server.process plan stats ~next_id:(id_gen ()) pm_b ~server:2
  in
  let with_name =
    List.find (fun pm -> Partial_match.bound pm 2 <> None) extensions
  in
  (* Info server next: book (b) has an info child, but the bound name is
     not inside it — the hard descendant conditional rejects the
     candidate, and deletion is blocked by the bound descendant, so the
     match dies. *)
  let { Server.extensions = exts; died } =
    Server.process plan stats ~next_id:(id_gen ()) with_name ~server:1
  in
  Alcotest.(check bool) "info cannot be deleted over a bound subtree" true died;
  Alcotest.(check int) "no extensions" 0 (List.length exts)

let test_comparison_counting () =
  let plan = make_plan Fixtures.q2d in
  let stats = Stats.create () in
  let pm = List.hd (initial plan) in
  let before = stats.comparisons in
  let _ = Server.process plan stats ~next_id:(id_gen ()) pm ~server:1 in
  (* book (a) has one title node to examine. *)
  Alcotest.(check int) "one comparison" (before + 1) stats.comparisons;
  Alcotest.(check int) "one op" 1 stats.server_ops

let test_rejects_visited_server () =
  let plan = make_plan Fixtures.q2d in
  let pm = List.hd (initial plan) in
  Alcotest.check_raises "root server rejected"
    (Invalid_argument "Server.process: the root server runs first") (fun () ->
      ignore (Server.process plan (Stats.create ()) ~next_id:(id_gen ()) pm ~server:0))

let suite =
  [
    Alcotest.test_case "initial matches" `Quick test_initial_matches;
    Alcotest.test_case "seed cursor" `Quick test_seed_cursor;
    Alcotest.test_case "seed class below the floor" `Quick test_seed_floor;
    Alcotest.test_case "extension binds" `Quick test_extension_binds;
    Alcotest.test_case "relaxed binding scores less" `Quick test_relaxed_binding_scores_less;
    Alcotest.test_case "optional unbound extension" `Quick test_optional_unbound_extension;
    Alcotest.test_case "exact-mode death" `Quick test_exact_mode_death;
    Alcotest.test_case "hard conditionals" `Quick test_hard_conditionals_without_promotion;
    Alcotest.test_case "deletion blocked" `Quick test_deletion_blocked_by_bound_descendant;
    Alcotest.test_case "comparison counting" `Quick test_comparison_counting;
    Alcotest.test_case "rejects visited" `Quick test_rejects_visited_server;
  ]
