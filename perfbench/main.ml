(* perfbench — the served benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe serve --corpus DIR --socket PATH --workers N

   The first form generates the workload's corpus and request stream
   from the seed, boots the server (the second form, in a child
   process), drives it for S seconds, checks every answer against the
   in-process oracle and prints every metric by name with its unit.  The
   last line of standard output is the JSON result: end-to-end metrics
   with --trace 0, per-layer metrics with --trace 1 (which adds the
   in-process replays).  Scratch files live under .perfbench/ in the
   current directory. *)

open Perfbench
module Protocol = Wp_serve.Protocol
module Json = Wp_json.Json

(* Raised rather than exiting on the spot, so the finalizers that stop
   the server and remove scratch files still run. *)
exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

(* --- arguments --- *)

let flags argv =
  let rec go acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> fail "unexpected argument %S" x
  in
  go [] argv

let get fs key =
  match List.assoc_opt key fs with
  | Some v -> v
  | None -> fail "missing --%s" key

let int_arg fs key =
  match int_of_string_opt (get fs key) with
  | Some n -> n
  | None -> fail "--%s expects an integer" key

(* --- scratch space --- *)

let scratch = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  match (Unix.lstat p).st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* --- traced replay --- *)

open Report

let replay_length = function
  | Seeded.Warm_repeat -> 500
  | Seeded.Adhoc_cold -> 150

let traced_layers w ~warmup ~stream ~corpus ~load_files ~oracle =
  (* the untimed warm-up pass, then the timed stream's prefix *)
  let requests = Array.append warmup (Array.sub stream 0 (replay_length w)) in
  let replay traced : Replay.run * Tracer.span list option * Replay.engine_gc =
    Replay.isolated ~scratch (fun () -> Replay.replay ~dir:corpus ~traced requests)
  in
  (* untraced, traced, untraced: the overhead compares the traced replay
     with the mean of the two around it, which cancels a linear drift in
     machine speed *)
  let plain, _, _ = replay false in
  let traced, spans, engine_gc = replay true in
  let plain_after, _, _ = replay false in
  let spans = Option.get spans in
  let wrong =
    List.filter_map
      (fun ((r : Seeded.request), (resp : Protocol.response)) ->
        if resp.status <> Protocol.Ok then Some (r.query ^ ": status " ^ Protocol.status_to_string resp.status)
        else Oracle.check oracle r resp.answers)
      (plain.replies @ traced.replies)
  in
  List.iter (fun why -> prerr_endline ("perfbench: replay: " ^ why)) wrong;
  let open_ms, xml_ms = Replay.load_costs load_files in
  let ms name = Tracer.durations_ms spans name in
  let selves = Tracer.self_times spans in
  let self_ms name =
    List.filter_map
      (fun ((s : Tracer.span), ns) ->
        if s.name = name then Some (Tracer.ms_of_ns ns) else None)
      selves
  in
  (* encode cost per request: every frame it sent *)
  let encode_us =
    let per_req = Hashtbl.create 1024 in
    List.iter
      (fun (s : Tracer.span) ->
        if s.name = "protocol.encode" then
          Hashtbl.replace per_req s.req
            (Int64.add (Tracer.duration_ns s)
               (Option.value (Hashtbl.find_opt per_req s.req) ~default:0L)))
      spans;
    Hashtbl.fold (fun _ ns acc -> (Int64.to_float ns /. 1e3) :: acc) per_req []
  in
  let q = float_of_int plain.requests in
  let overhead_pct =
    let untraced =
      (Int64.to_float plain.request_ns +. Int64.to_float plain_after.request_ns) /. 2.0
    in
    Stat.ratio (Int64.to_float traced.request_ns -. untraced) untraced *. 100.0
  in
  let metrics =
    [
      m "storage.open_ms" "ms" open_ms;
      m "xml.load_ms" "ms" xml_ms;
      m "dataguide.build_ms" "ms" (Stat.median (ms "dataguide.build"));
      m "plan.compile_ms" "ms" (Stat.median (ms "plan.compile"));
      m "catalog.lookup_us" "us" (1e3 *. Stat.median (ms "catalog.lookup"));
      m "engine.run_ms" "ms" (Stat.median (ms "engine.run"));
      m "twig.run_ms" "ms" (Stat.median (ms "twig.run"));
      m "engine.minor_words_per_match" "words"
        (Stat.ratio engine_gc.Replay.minor_words (float_of_int engine_gc.matches));
      m "service.self_ms" "ms" (Stat.median (self_ms "service.handle_query"));
      m "protocol.decode_us" "us" (1e3 *. Stat.median (ms "protocol.decode"));
      m "protocol.encode_us" "us" (Stat.median encode_us);
      m "gc.minor_words_per_query" "words" (Stat.ratio plain.minor_words q);
      m "gc.major_collections_per_1k_queries" "count"
        (Stat.ratio (float_of_int plain.major_collections *. 1000.0) q);
      m "trace.overhead_pct" "%" overhead_pct;
    ]
  in
  (metrics, spans, wrong = [])

(* --- the run --- *)

let setup_boots = 15

let run w ~seed ~seconds ~trace =
  let shape = Seeded.shape w in
  let name = Seeded.workload_to_string w in
  let work = Filename.concat scratch (Printf.sprintf "run-%s-%d-%d" name seed (Unix.getpid ())) in
  let corpus = Filename.concat work "corpus" in
  mkdir_p corpus;
  Fun.protect
    ~finally:(fun () -> rm_rf work)
    (fun () ->
      let docs = Seeded.corpus w ~seed in
      let stream = Seeded.stream w ~seed in
      let warmup =
        match w with
        | Seeded.Warm_repeat -> Seeded.warm_set ~seed
        | Seeded.Adhoc_cold -> [||]
      in
      Printf.printf "workload %s seed %d: corpus %s (%d docs), %d-request stream\n%!"
        name seed (Seeded.corpus_digest docs) (List.length docs) (Array.length stream);
      Seeded.write_corpus ~format:shape.format ~dir:corpus docs;
      let socket = Filename.concat work "s.sock" in
      let log = Filename.concat work "server.log" in
      let boot () =
        match
          Served.boot ~exe:Sys.executable_name ~corpus ~socket ~workers:shape.workers ~log
        with
        | Ok x -> x
        | Error m -> fail "%s" m
      in
      (* set-up time: the median of several boots; the last one serves *)
      let boots =
        List.init setup_boots (fun i ->
            let server, s = boot () in
            if i < setup_boots - 1 then Served.stop server;
            (server, s))
      in
      let server = fst (List.nth boots (setup_boots - 1)) in
      let setup_s = Stat.median (List.map snd boots) in
      let measured =
        Fun.protect
          ~finally:(fun () -> Served.stop server)
          (fun () ->
            let warm = Served.warm_up socket warmup in
            let counters () =
              match Served.counters socket with Ok c -> c | Error m -> fail "metrics op: %s" m
            in
            let c0 = counters () in
            let cpu0 = Served.cpu_ms server.pid in
            let samples, window_s =
              Served.drive socket ~clients:shape.clients ~seconds stream
            in
            let cpu1 = Served.cpu_ms server.pid in
            let c1 = counters () in
            let rss_mb = Served.peak_rss_mb server.pid in
            (warm, samples, window_s, cpu1 -. cpu0, Served.diff c0 c1, rss_mb))
      in
      let warm, samples, window_s, cpu_ms, counters, rss_mb = measured in
      (* the oracle indexes the generated trees directly, independent of
         the XML parser and the .wpidx reader the server used *)
      let oracle =
        Oracle.create
          (List.map
             (fun (d : Seeded.doc) ->
               (d.name, Wp_xml.Index.build (Wp_xml.Doc.of_tree d.tree)))
             docs)
      in
      let cache = Oracle.cache_file ~dir:scratch ~workload:w ~seed in
      Oracle.load oracle cache;
      let warm_ok =
        List.for_all (fun s -> classify oracle warmup s = Stat.Ok_reply) warm
      in
      let tally = Stat.tally () in
      let outcomes = List.map (fun s -> classify oracle stream s) samples in
      List.iter (Stat.record tally) outcomes;
      let e2e = end_to_end ~setup_s ~window_s ~cpu_ms ~rss_mb ~tally samples in
      let served = served_layers stream samples counters in
      let traced, spans, replay_ok =
        if trace then begin
          (* both formats of every document, for the load-cost spans *)
          let both = Filename.concat work "both" in
          mkdir_p both;
          Seeded.write_corpus ~format:Seeded.Wpidx ~dir:both docs;
          Seeded.write_corpus ~format:Seeded.Xml ~dir:both docs;
          let files =
            List.map
              (fun (d : Seeded.doc) ->
                let base = Filename.concat both (Filename.remove_extension d.name) in
                (base ^ ".wpidx", base ^ ".xml"))
              docs
          in
          let metrics, spans, ok = traced_layers w ~warmup ~stream ~corpus ~load_files:files ~oracle in
          (metrics, Some spans, ok)
        end
        else ([], None, true)
      in
      Oracle.save oracle cache;
      Option.iter
        (fun spans ->
          Tracer.write (Filename.concat scratch (Printf.sprintf "spans-%s-%d.jsonl" name seed)) spans)
        spans;
      let n = List.length samples in
      Printf.printf "window %.3f s, %d requests on %d client(s), 1 server process with %d worker(s)\n"
        window_s n shape.clients shape.workers;
      (match Stat.supported_tail n with
      | Some q when q >= 0.99 -> ()
      | Some q -> Printf.printf "warning: %d samples support only p%g, not p99\n" n (q *. 100.0)
      | None -> Printf.printf "warning: %d samples support no tail percentile\n" n);
      Printf.printf "outcomes:";
      List.iter
        (fun o ->
          Printf.printf " %s=%d" (Stat.outcome_to_string o)
            (List.length (List.filter (( = ) o) outcomes)))
        Stat.[ Ok_reply; Error_reply; Overloaded; Partial; Transport; Wrong_answer ];
      print_newline ();
      List.iter print_metric (e2e @ served @ traced);
      let correct = tally.failed = 0 && warm_ok && replay_ok && n > 0 in
      let reported =
        if trace then served @ traced
        else List.filter (fun x -> x.name <> "error_rate") e2e
      in
      print_endline
        (result_json ~correct ~attempted:tally.attempted ~failed:tally.failed reported))

let main () =
  match Array.to_list Sys.argv with
  | _ :: "serve" :: rest -> (
      let fs = flags rest in
      match
        Served.serve ~corpus:(get fs "corpus") ~socket:(get fs "socket")
          ~workers:(int_arg fs "workers")
      with
      | Ok () -> ()
      | Error m -> fail "serve: %s" m)
  | _ :: rest ->
      let fs = flags rest in
      let w =
        match Seeded.workload_of_string (get fs "workload") with
        | Some w -> w
        | None -> fail "unknown workload %S" (get fs "workload")
      in
      let seconds = int_arg fs "seconds" in
      if seconds < 1 then fail "--seconds must be >= 1";
      let trace =
        match get fs "trace" with "0" -> false | "1" -> true | _ -> fail "--trace is 0 or 1"
      in
      run w ~seed:(int_arg fs "seed") ~seconds:(float_of_int seconds) ~trace
  | [] -> fail "no arguments"

let () =
  match main () with
  | () -> ()
  | exception Failed m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2
