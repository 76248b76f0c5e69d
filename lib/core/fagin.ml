type lists = {
  n_lists : int;
  (* per list: (root, score) sorted by score desc, root asc on ties *)
  sorted : (int * float) array array;
  (* per list: random-access map root -> score (absent = 0) *)
  random : (int, float) Hashtbl.t array;
}

let build_lists (plan : Plan.t) =
  if not Wp_relax.Relaxation.(
       plan.config.edge_generalization && plan.config.leaf_deletion
       && plan.config.subtree_promotion)
  then
    invalid_arg
      "Fagin.build_lists: per-node independence requires all relaxations";
  (* A root's per-node score is its seed bound's term for the node:
     the root weight, or the best weight a binding below it can earn
     (the server's cap; 0 when nothing binds, the node deleted). *)
  let list_for server =
    let scored =
      Array.map
        (fun root ->
          ( root,
            if server = 0 then Plan.root_weight plan root
            else Plan.seed_cap plan ~root server ))
        plan.roots
    in
    Array.sort
      (fun (r1, s1) (r2, s2) ->
        match Float.compare s2 s1 with 0 -> Int.compare r1 r2 | c -> c)
      scored;
    scored
  in
  let sorted = Array.init plan.n_servers list_for in
  let random =
    Array.map
      (fun list ->
        let h = Hashtbl.create (Array.length list) in
        Array.iter (fun (root, score) -> Hashtbl.replace h root score) list;
        h)
      sorted
  in
  { n_lists = plan.n_servers; sorted; random }

type result = {
  answers : (int * float) list;
  sorted_accesses : int;
  random_accesses : int;
  rounds : int;
}

let top_k lists ~k =
  let sorted_accesses = ref 0 in
  let random_accesses = ref 0 in
  let seen = Hashtbl.create 64 in
  (* Candidate top-k kept worst-first ((score asc, root desc)), so the
     head is the entry to displace; ties prefer smaller roots, matching
     the scan's ordering. *)
  let worse (r1, s1) (r2, s2) =
    match Float.compare s1 s2 with 0 -> Int.compare r2 r1 | c -> c
  in
  let top : (int * float) list ref = ref [] in
  let kth_score () =
    if List.length !top < k then neg_infinity
    else match !top with (_, s) :: _ -> s | [] -> neg_infinity
  in
  let offer root total =
    if not (Hashtbl.mem seen root) then begin
      Hashtbl.add seen root ();
      let merged = List.sort worse ((root, total) :: !top) in
      top := (if List.length merged > k then List.tl merged else merged)
    end
  in
  let positions = Array.make lists.n_lists 0 in
  let last_seen = Array.make lists.n_lists infinity in
  let exhausted () =
    let all = ref true in
    for l = 0 to lists.n_lists - 1 do
      if positions.(l) < Array.length lists.sorted.(l) then all := false
    done;
    !all
  in
  let threshold () = Array.fold_left ( +. ) 0.0 last_seen in
  let total_of root =
    let sum = ref 0.0 in
    for l = 0 to lists.n_lists - 1 do
      incr random_accesses;
      sum :=
        !sum
        +. Option.value (Hashtbl.find_opt lists.random.(l) root) ~default:0.0
    done;
    !sum
  in
  let rounds = ref 0 in
  let stop = ref false in
  while not !stop do
    incr rounds;
    (* One sorted access per list. *)
    for l = 0 to lists.n_lists - 1 do
      if positions.(l) < Array.length lists.sorted.(l) then begin
        let root, score = lists.sorted.(l).(positions.(l)) in
        positions.(l) <- positions.(l) + 1;
        incr sorted_accesses;
        last_seen.(l) <- score;
        if not (Hashtbl.mem seen root) then offer root (total_of root)
      end
      else last_seen.(l) <- 0.0
    done;
    if List.length !top >= k && kth_score () >= threshold () then stop := true;
    if exhausted () then stop := true
  done;
  let answers =
    List.sort
      (fun (r1, s1) (r2, s2) ->
        match Float.compare s2 s1 with 0 -> Int.compare r1 r2 | c -> c)
      !top
  in
  {
    answers;
    sorted_accesses = !sorted_accesses;
    random_accesses = !random_accesses;
    rounds = !rounds;
  }

(* NRA candidate bookkeeping: which lists have reported this root, and
   the sum of the reported scores. *)
type nra_candidate = { mutable known_mask : int; mutable known_sum : float }

let top_k_nra lists ~k =
  let sorted_accesses = ref 0 in
  let candidates : (int, nra_candidate) Hashtbl.t = Hashtbl.create 256 in
  let positions = Array.make lists.n_lists 0 in
  let last_seen = Array.make lists.n_lists infinity in
  let full_mask = (1 lsl lists.n_lists) - 1 in
  let exhausted () =
    let all = ref true in
    for l = 0 to lists.n_lists - 1 do
      if positions.(l) < Array.length lists.sorted.(l) then all := false
    done;
    !all
  in
  let upper_of c =
    let u = ref c.known_sum in
    for l = 0 to lists.n_lists - 1 do
      if c.known_mask land (1 lsl l) = 0 then u := !u +. last_seen.(l)
    done;
    !u
  in
  let rounds = ref 0 in
  let stop = ref false in
  while not !stop do
    incr rounds;
    for l = 0 to lists.n_lists - 1 do
      if positions.(l) < Array.length lists.sorted.(l) then begin
        let root, score = lists.sorted.(l).(positions.(l)) in
        positions.(l) <- positions.(l) + 1;
        incr sorted_accesses;
        last_seen.(l) <- score;
        let c =
          match Hashtbl.find_opt candidates root with
          | Some c -> c
          | None ->
              let c = { known_mask = 0; known_sum = 0.0 } in
              Hashtbl.add candidates root c;
              c
        in
        if c.known_mask land (1 lsl l) = 0 then begin
          c.known_mask <- c.known_mask lor (1 lsl l);
          c.known_sum <- c.known_sum +. score
        end
      end
      else last_seen.(l) <- 0.0
    done;
    (* Halt when the k best lower bounds are fully resolved and beat
       every other upper bound (including the bound on unseen roots). *)
    let by_lower =
      List.sort
        (fun (r1, c1) (r2, c2) ->
          match Float.compare c2.known_sum c1.known_sum with
          | 0 -> Int.compare r1 r2
          | c -> c)
        (Hashtbl.fold (fun r c acc -> (r, c) :: acc) candidates [])
    in
    let topk = List.filteri (fun i _ -> i < k) by_lower in
    let rest = List.filteri (fun i _ -> i >= k) by_lower in
    if List.length topk = k || exhausted () then begin
      let resolved =
        List.for_all (fun (_, c) -> c.known_mask = full_mask) topk
      in
      let kth_lower =
        List.fold_left (fun acc (_, c) -> Float.min acc c.known_sum) infinity
          topk
      in
      let best_outside =
        List.fold_left
          (fun acc (_, c) -> Float.max acc (upper_of c))
          (Array.fold_left ( +. ) 0.0 last_seen (* unseen roots *))
          rest
      in
      if (resolved && kth_lower >= best_outside) || exhausted () then
        stop := true
    end
  done;
  let answers =
    List.sort
      (fun (r1, s1) (r2, s2) ->
        match Float.compare s2 s1 with 0 -> Int.compare r1 r2 | c -> c)
      (List.filteri
         (fun i _ -> i < k)
         (List.sort
            (fun (r1, c1) (r2, c2) ->
              match Float.compare c2.known_sum c1.known_sum with
              | 0 -> Int.compare r1 r2
              | c -> c)
            (Hashtbl.fold (fun r c acc -> (r, c) :: acc) candidates []))
       |> List.map (fun (r, c) -> (r, c.known_sum)))
  in
  {
    answers;
    sorted_accesses = !sorted_accesses;
    random_accesses = 0;
    rounds = !rounds;
  }

let scan_top_k lists ~k =
  let totals = Hashtbl.create 256 in
  Array.iter
    (fun list ->
      Array.iter
        (fun (root, score) ->
          Hashtbl.replace totals root
            (score +. Option.value (Hashtbl.find_opt totals root) ~default:0.0))
        list)
    lists.sorted;
  let all = Hashtbl.fold (fun r s acc -> (r, s) :: acc) totals [] in
  let sorted =
    List.sort
      (fun (r1, s1) (r2, s2) ->
        match Float.compare s2 s1 with 0 -> Int.compare r1 r2 | c -> c)
      all
  in
  List.filteri (fun i _ -> i < k) sorted
