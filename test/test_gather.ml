(* The scatter–gather bound protocol: monotonicity and merge arithmetic
   of the shared floor, plus Raceway coverage — seeded deterministic
   schedules of shard fibers publishing and reading concurrently, every
   trace checked for data races and lock-hierarchy violations against
   the serve-extended rank (Gather.lock_rank). *)

module C = Wp_analysis.Concurrency
module Gather = Wp_serve.Gather

(* --- unit semantics (production instantiation) --- *)

let test_publish_monotone () =
  let g = Gather.create ~k:2 () in
  Alcotest.(check bool) "starts at -inf" true
    (Gather.bound g = Float.neg_infinity);
  Gather.publish g 1.5;
  Alcotest.(check (float 0.0)) "tightens" 1.5 (Gather.bound g);
  Gather.publish g 0.5;
  Alcotest.(check (float 0.0)) "never loosens" 1.5 (Gather.bound g);
  Gather.publish g 2.0;
  Alcotest.(check (float 0.0)) "tightens again" 2.0 (Gather.bound g);
  Alcotest.(check int) "publish count" 2 (Gather.publishes g)

let test_note_scores_kth () =
  let g = Gather.create ~k:3 () in
  (* Fewer than k scores establish no floor. *)
  Gather.note_scores g [ 5.0; 4.0 ];
  Alcotest.(check bool) "below k: no floor" true
    (Gather.bound g = Float.neg_infinity);
  (* The merged k-th (3rd best of 5,4,3,2) is the floor. *)
  Gather.note_scores g [ 3.0; 2.0 ];
  Alcotest.(check (float 0.0)) "merged kth" 3.0 (Gather.bound g);
  (* Better scores from another shard raise the merged k-th. *)
  Gather.note_scores g [ 6.0; 5.5 ];
  Alcotest.(check (float 0.0)) "tightened kth" 5.0 (Gather.bound g)

let test_bound_reader_staleness () =
  let g = Gather.create ~k:1 () in
  let read = Gather.bound_reader g in
  Alcotest.(check bool) "initial read" true (read () = Float.neg_infinity);
  Gather.publish g 7.0;
  (* The reader refreshes only every 64th call — intermediate reads may
     be stale but never exceed the true bound. *)
  let out = ref Float.neg_infinity in
  for _ = 1 to 65 do
    let b = read () in
    Alcotest.(check bool) "stale read never over-prunes" true (b <= 7.0);
    out := b
  done;
  Alcotest.(check (float 0.0)) "eventually refreshed" 7.0 !out

let test_push_off_is_inert () =
  let g = Gather.create ~push:false ~k:1 () in
  Gather.publish g 9.0;
  Gather.note_scores g [ 9.0; 8.0 ];
  Alcotest.(check bool) "no floor when off" true
    (Gather.bound g = Float.neg_infinity);
  let read = Gather.bound_reader g in
  for _ = 1 to 100 do
    Alcotest.(check bool) "reader never prunes when off" true
      (read () = Float.neg_infinity)
  done

(* --- engine integration: external bound prunes, strict inequality --- *)

let test_engine_external_bound () =
  let doc = Wp_xmark.Generator.generate_doc ~seed:3 ~target_bytes:40_000 () in
  let idx = Wp_xml.Index.build doc in
  let pattern = Wp_pattern.Xpath_parser.parse "//item[./name and ./incategory]" in
  let plan = Whirlpool.Run.compile idx pattern in
  let base = Whirlpool.Engine.run plan ~k:5 in
  let kth =
    match List.rev base.answers with
    | [] -> Alcotest.fail "workload returned no answers"
    | last :: _ -> last.Whirlpool.Topk_set.score
  in
  (* A floor exactly at the k-th score must keep ties alive: the
     answers are unchanged (the sharded == unsharded property at the
     engine level), while strictly-below-floor work is pruned away. *)
  let config =
    Whirlpool.Engine.Config.(default |> with_prune_bound (fun () -> kth))
  in
  let bounded = Whirlpool.Engine.run ~config plan ~k:5 in
  Alcotest.(check (list (pair int (float 0.0)))) "answers preserved at tie"
    (List.map (fun (e : Whirlpool.Topk_set.entry) -> (e.root, e.score)) base.answers)
    (List.map (fun (e : Whirlpool.Topk_set.entry) -> (e.root, e.score)) bounded.answers);
  Alcotest.(check bool) "bound only reduces work" true
    (bounded.stats.server_ops <= base.stats.server_ops);
  (* An impossible floor kills all speculative extension work without
     crashing.  Completed matches are still admitted — the bound prunes
     only partial matches, never answers already in hand (that is what
     keeps a too-tight stale bound harmless) — so we assert on the work
     counters, not on emptiness. *)
  let config =
    Whirlpool.Engine.Config.(
      default |> with_prune_bound (fun () -> Float.infinity))
  in
  let floored = Whirlpool.Engine.run ~config plan ~k:5 in
  Alcotest.(check bool) "infinite floor: strictly less work" true
    (floored.stats.server_ops < base.stats.server_ops);
  List.iter
    (fun (e : Whirlpool.Topk_set.entry) ->
      Alcotest.(check bool) "surviving answers are complete" true
        (List.exists
           (fun (b : Whirlpool.Topk_set.entry) ->
             b.root = e.root && b.score >= e.score)
           base.answers
        || e.score <= kth))
    floored.answers

(* The engine publishes its own threshold while running. *)
let test_engine_publishes () =
  let doc = Wp_xmark.Generator.generate_doc ~seed:4 ~target_bytes:40_000 () in
  let idx = Wp_xml.Index.build doc in
  let pattern = Wp_pattern.Xpath_parser.parse "//item[./name]" in
  let plan = Whirlpool.Run.compile idx pattern in
  let published = ref [] in
  let config =
    Whirlpool.Engine.Config.(
      default |> with_publish_threshold (fun th -> published := th :: !published))
  in
  let r = Whirlpool.Engine.run ~config plan ~k:3 in
  Alcotest.(check bool) "published at least once" true (!published <> []);
  (* Publishes are strictly increasing (monotone tightening)... *)
  let rec increasing = function
    | a :: (b :: _ as rest) -> b < a && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone publishes" true (increasing !published);
  (* ...and the last (tightest) one is this run's final threshold — a
     floor every answer meets. *)
  List.iter
    (fun (e : Whirlpool.Topk_set.entry) ->
      Alcotest.(check bool) "answers at or above own floor" true
        (e.score >= List.hd !published))
    r.answers

(* --- Raceway: seeded schedules over the instrumented scheduler --- *)

type sched_result = { final : float; reads : float list }

let program (sync : (module Whirlpool.Sync.S)) =
  let module S = (val sync) in
  let module G = Gather.Make (S) in
  let g = G.create ~k:2 () in
  (* Three shard fibers: two publishing interleaved thresholds and
     folding scores in, one reading the bound mid-flight. *)
  let reads = ref [] in
  let shard1 =
    S.spawn "shard1" (fun () ->
        G.publish g 1.0;
        G.note_scores g [ 3.0; 1.0 ];
        G.publish g 1.5)
  in
  let shard2 =
    S.spawn "shard2" (fun () ->
        G.publish g 0.5;
        G.note_scores g [ 2.5; 2.0 ];
        G.publish g 2.0)
  in
  let reader =
    S.spawn "reader" (fun () ->
        let read = G.bound_reader g in
        for _ = 1 to 3 do
          reads := read () :: !reads
        done)
  in
  S.join shard1;
  S.join shard2;
  S.join reader;
  { final = G.bound g; reads = !reads }

let check_outcome seed (o : sched_result Whirlpool.Sched.outcome) =
  let fail msg = Alcotest.failf "seed %d: %s" seed msg in
  if o.budget_exceeded then fail "step budget exceeded";
  if o.blocked <> [] then
    fail
      (Printf.sprintf "deadlock; blocked fibers: %s"
         (String.concat ", " o.blocked));
  let r =
    match o.value with Ok r -> r | Error e -> fail (Printexc.to_string e)
  in
  (* Every schedule converges to the same floor: both shards' scores
     merged, k=2 ⇒ kth = 2.5; explicit publishes never exceed it. *)
  if r.final <> 2.5 then fail (Printf.sprintf "final bound %f <> 2.5" r.final);
  List.iter
    (fun b ->
      if not (b <= 2.5) then
        fail (Printf.sprintf "reader saw %f above the final bound" b))
    r.reads;
  (match C.races o.trace with
  | [] -> ()
  | ds ->
      fail (Format.asprintf "races:@ %a" Wp_analysis.Diagnostic.pp_list ds));
  match C.lock_order ~rank:Gather.lock_rank o.trace with
  | [] -> ()
  | ds ->
      fail
        (Format.asprintf "lock order:@ %a" Wp_analysis.Diagnostic.pp_list ds)

let test_gather_schedules () =
  for seed = 0 to 49 do
    let outcome =
      Whirlpool.Sched.run ~choose:(Whirlpool.Sched.random ~seed) program
    in
    check_outcome seed outcome
  done

(* The declared hierarchy: the gather mutex is a leaf (rank 0) and the
   pool/engine ranks pass through unchanged. *)
let test_lock_rank_extension () =
  Alcotest.(check (option int)) "gather mutex rank" (Some 0)
    (Gather.lock_rank Gather.mutex_name);
  Alcotest.(check (option int)) "pool rank preserved" (Some 2)
    (Gather.lock_rank Wp_serve.Pool.mutex_name);
  Alcotest.(check (option int)) "topk rank preserved" (Some 1)
    (Gather.lock_rank "topk.mutex");
  Alcotest.(check (option int)) "queue rank preserved" (Some 0)
    (Gather.lock_rank "queue.router");
  Alcotest.(check (option int)) "unknown unranked" None
    (Gather.lock_rank "mystery.lock")

let suite =
  [
    Alcotest.test_case "publish is monotone" `Quick test_publish_monotone;
    Alcotest.test_case "note_scores merges the kth" `Quick test_note_scores_kth;
    Alcotest.test_case "bound reader staleness is one-sided" `Quick
      test_bound_reader_staleness;
    Alcotest.test_case "push off is inert" `Quick test_push_off_is_inert;
    Alcotest.test_case "engine honors external bound" `Quick
      test_engine_external_bound;
    Alcotest.test_case "engine publishes its threshold" `Quick
      test_engine_publishes;
    Alcotest.test_case "50 seeded schedules" `Quick test_gather_schedules;
    Alcotest.test_case "lock rank extension" `Quick test_lock_rank_extension;
  ]
