module D = Wp_analysis.Diagnostic
module C = Wp_analysis.Concurrency

type report = { schedules : int; steps : int; diagnostics : D.t list }

let lock_rank name =
  if String.starts_with ~prefix:"queue." name then Some 0
  else if String.equal name Candidate_cache.mutex_name then Some 0
    (* leaf-only: never held together with a queue mutex *)
  else if String.equal name Wp_score.Component_table.mutex_name then Some 0
    (* leaf-only: held for one LRU lookup or insert during plan compile *)
  else if
    (* leaf-only observability locks: span/profile recording and
       registry snapshots never take another lock while held (they are
       real mutexes, invisible to Sched, ranked here so the declared
       hierarchy stays complete) *)
    String.equal name Wp_obs.Obs.mutex_name
    || String.equal name Wp_obs.Registry.mutex_name
  then Some 0
  else if String.equal name "topk.mutex" then Some 1
  else None

let sorted_scores (answers : Topk_set.entry list) =
  List.sort (fun a b -> Float.compare b a)
    (List.map (fun (e : Topk_set.entry) -> e.score) answers)

let scores_equal xs ys =
  List.length xs = List.length ys
  && List.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) xs ys

let check ?(schedules = 200) ?(seed = 0) ?(routing = Strategy.Min_alive)
    ?(queue_policy = Strategy.Max_final_score) ?(faults = [])
    ?(max_steps = 1_000_000) (plan : Plan.t) ~k =
  let config =
    Engine.Config.(
      default |> with_routing routing |> with_queue_policy queue_policy)
  in
  let oracle = Engine.run ~config plan ~k in
  let expected = sorted_scores oracle.Engine.answers in
  let graph = C.Lock_graph.create () in
  (* Dedup across schedules: the same finding recurs in most of them;
     report it once, naming the first schedule that exhibited it. *)
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let diags = ref [] in
  let add sched_idx (d : D.t) =
    (* schedule/shutdown messages embed run-specific counts; collapse
       them per code so 200 schedules report each defect once. *)
    let key =
      match D.class_of d with
      | "schedule" | "shutdown" -> d.code
      | _ -> d.code ^ "|" ^ d.message
    in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      diags :=
        { d with message = Printf.sprintf "%s [schedule %d]" d.message sched_idx }
        :: !diags
    end
  in
  let steps_total = ref 0 in
  for i = 0 to schedules - 1 do
    let r =
      Sched.run ~max_steps
        ~choose:(Sched.random ~seed:(seed + i))
        (fun sync ->
          let module S = (val sync : Sync.S) in
          let module E = Engine_mt.Make (S) in
          E.run ~faults ~config plan ~k)
    in
    steps_total := !steps_total + r.Sched.steps;
    C.Lock_graph.add_trace graph r.Sched.trace;
    List.iter (add i) (C.races r.Sched.trace);
    let completed = (not r.Sched.budget_exceeded) && r.Sched.blocked = [] in
    List.iter (add i)
      (C.shutdown ~completed ~pending_loc:Engine_mt.pending_loc r.Sched.trace);
    if r.Sched.budget_exceeded then
      add i
        (D.errorf "schedule/step-budget"
           "schedule exceeded the %d-step budget with %d thread(s) still \
            alive (%s): livelock or runaway work"
           max_steps
           (List.length r.Sched.blocked)
           (String.concat ", " r.Sched.blocked))
    else if r.Sched.blocked <> [] then
      add i
        (D.errorf "schedule/deadlock"
           "threads blocked with no runnable peer: %s"
           (String.concat ", " r.Sched.blocked))
    else begin
      match r.Sched.value with
      | Ok (res : Engine.result) ->
          let got = sorted_scores res.Engine.answers in
          if not (scores_equal expected got) then
            add i
              (D.errorf "schedule/answer-mismatch"
                 "explored schedule returned %d answer(s) with scores [%s], \
                  oracle Engine.run has %d with [%s]"
                 (List.length got)
                 (String.concat ";" (List.map (Printf.sprintf "%.4f") got))
                 (List.length expected)
                 (String.concat ";"
                    (List.map (Printf.sprintf "%.4f") expected)))
      | Error (Invariants.Violation m) ->
          add i (D.errorf "schedule/invariant" "runtime invariant violated: %s" m)
      | Error e ->
          add i
            (D.errorf "schedule/exception" "engine raised under schedule: %s"
               (Printexc.to_string e))
    end
  done;
  let graph_diags = C.Lock_graph.check ~rank:lock_rank graph in
  {
    schedules;
    steps = !steps_total;
    diagnostics = D.sort (graph_diags @ List.rev !diags);
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%d schedule(s), %d step(s): " r.schedules r.steps;
  if r.diagnostics = [] then Format.fprintf ppf "no findings@]"
  else begin
    Format.fprintf ppf "%d finding(s)@," (List.length r.diagnostics);
    Format.fprintf ppf "%a@]" D.pp_list r.diagnostics
  end
