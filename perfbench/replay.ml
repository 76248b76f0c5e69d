(* The in-process replay: the served request sequence run again against a
   [Service.t] on the same corpus, without spans or with them.

   Per request the traced replay records, all under one request id:

   {v
   request                       decode + handle + encode, as a worker does
   ├─ protocol.decode            Protocol.parse_request
   ├─ service.handle_query       Service.handle_query_stream
   │  ├─ protocol.encode         one per streamed Part frame
   │  ├─ plan.compile | catalog.lookup    } the service's own calls,
   │  ├─ dataguide.build                  } replayed on a twin catalog
   │  └─ engine.run | twig.run            } (see below)
   └─ protocol.encode            the Done frame
   v}

   The service does not expose its inner calls, so each request's plan
   lookup, dataguide build and engine runs are replayed right after it
   on a twin catalog loaded from the same files.  The twin sees the same
   request sequence, so its plan cache hits, misses and evicts exactly
   as the service's does and its candidate caches are exactly as warm.
   The service's self time is its span minus these children: resolve,
   merge, answer conversion and the streaming hooks. *)

module Protocol = Wp_serve.Protocol
module Catalog = Wp_serve.Catalog
module Service = Wp_serve.Service
module Json = Wp_json.Json

let now_ns = Whirlpool.Clock.now_ns

let load_catalog dir =
  let c = Catalog.create () in
  match Catalog.load_dir c dir with
  | Ok _ -> c
  | Error m -> failwith ("replay: " ^ m)

let algo_of (r : Seeded.request) =
  match Option.map Whirlpool.Engine.Config.algo_of_string r.algo with
  | None -> Whirlpool.Engine.Config.default.algo
  | Some (Some a) -> a
  | Some None -> invalid_arg "replay: unknown algo"

type engine_gc = { mutable minor_words : float; mutable matches : int }

(* The service's per-document calls, replayed on the twin.  The twin
   builds each document's guide itself, once, as the catalog's lazy
   guide does; it stays out of [Dataguide.of_index]'s process-wide memo,
   which compares documents structurally and cannot compare two mapped
   copies of one file. *)
let probe tr gc (twin, guides) ~req ~parent (r : Seeded.request) =
  let docs =
    match r.doc with
    | Some d -> Option.to_list (Catalog.find twin d)
    | None -> Catalog.docs twin
  in
  let algo = algo_of r in
  let twig = algo = Whirlpool.Engine.Config.Twig in
  List.iter
    (fun (doc : Catalog.doc) ->
      let lookup () =
        let misses = (Catalog.plan_cache_stats twin).misses in
        let t0 = now_ns () in
        let cached = Catalog.plan_for twin doc r.query in
        let t1 = now_ns () in
        let missed = (Catalog.plan_cache_stats twin).misses > misses in
        (cached, missed, t0, t1)
      in
      let cached, missed, t0, t1 = lookup () in
      Tracer.add tr ~req ~parent
        (if missed then "plan.compile" else "catalog.lookup")
        ~start_ns:t0 ~end_ns:t1;
      (* After a miss, time one hit as well so the lookup cost is known
         on a workload that never repeats a plan; the service made no
         such call, so the span is not its child. *)
      if missed then begin
        let _, _, t0, t1 = lookup () in
        Tracer.add tr ~req "catalog.lookup" ~start_ns:t0 ~end_ns:t1
      end;
      let cached =
        match cached with
        | Ok c -> c
        | Error e -> failwith ("replay: " ^ Catalog.plan_error_message e)
      in
      let guide =
        if not twig then None
        else
          match Hashtbl.find_opt guides doc.name with
          | Some g -> Some g
          | None ->
              let t0 = now_ns () in
              let g = Wp_stats.Dataguide.build (Wp_xml.Index.doc doc.index) in
              Tracer.add tr ~req ~parent "dataguide.build" ~start_ns:t0
                ~end_ns:(now_ns ());
              Hashtbl.replace guides doc.name g;
              Some g
      in
      let config =
        Whirlpool.Engine.Config.(
          default |> with_cache (Some cached.Catalog.cache) |> with_algo algo)
      in
      let w0 = Gc.minor_words () in
      let t0 = now_ns () in
      let result = Wp_twig.Backend.run ~config ?guide cached.plan ~k:r.k in
      let t1 = now_ns () in
      if not twig then begin
        gc.minor_words <- gc.minor_words +. (Gc.minor_words () -. w0);
        gc.matches <- gc.matches + result.stats.matches_created
      end;
      Tracer.add tr ~req ~parent
        (if twig then "twig.run" else "engine.run")
        ~start_ns:t0 ~end_ns:t1)
    docs

type run = {
  request_ns : int64;  (** summed decode + handle + encode time *)
  requests : int;
  minor_words : float;
  major_collections : int;
  replies : (Seeded.request * Protocol.response) list;
}

(* Run [f] in a forked child and return its result.  Each replay gets a
   process of its own: its GC counters start clean, and its catalogs
   never meet another replay's copies of the same documents in the
   process-wide dataguide memo. *)
let isolated ~scratch f =
  let out = Filename.temp_file ~temp_dir:scratch "replay" ".bin" in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        match f () with
        | v ->
            let oc = open_out_bin out in
            Marshal.to_channel oc v [];
            close_out oc;
            0
        | exception e ->
            prerr_endline ("replay failed: " ^ Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid ->
      let status = snd (Unix.waitpid [] pid) in
      Fun.protect
        ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
        (fun () ->
          match status with
          | Unix.WEXITED 0 ->
              let ic = open_in_bin out in
              Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Marshal.from_channel ic)
          | _ -> failwith "replay child failed")

(* One replay of [requests] against a fresh service on [dir].  With
   [traced] the spans go to the returned tracer and the twin probes
   run. *)
let replay ~dir ~traced (requests : Seeded.request array) =
  let service = Service.create ~catalog:(load_catalog dir) () in
  let tr = if traced then Some (Tracer.create ()) else None in
  let twin = if traced then Some (load_catalog dir, Hashtbl.create 8) else None in
  let gc = { minor_words = 0.0; matches = 0 } in
  (* the client's encoding is not server work: prepare it up front *)
  let wire =
    Array.mapi
      (fun id r ->
        Json.to_string
          (Protocol.request_to_json (Protocol.Query (Seeded.to_query ~id r))))
      requests
  in
  let request_ns = ref 0L in
  let replies = ref [] in
  let s0 = Gc.quick_stat () in
  Array.iteri
    (fun req (r : Seeded.request) ->
      let span ?parent name f = Tracer.span tr ~req ?parent name f in
      let handle_sid = ref None in
      let t0 = now_ns () in
      let resp =
        span "request" (fun root ->
            let q =
              span ?parent:root "protocol.decode" (fun _ ->
                  match Protocol.parse_request wire.(req) with
                  | Ok (Protocol.Query q) -> q
                  | Ok _ | Error _ -> failwith "replay: request does not decode")
            in
            let resp =
              span ?parent:root "service.handle_query" (fun hs ->
                  handle_sid := hs;
                  let seq = ref 0 in
                  let on_part answer =
                    span ?parent:hs "protocol.encode" (fun _ ->
                        let frame = Protocol.Part { id = req; seq = !seq; answer } in
                        incr seq;
                        ignore (Json.to_string (Protocol.frame_to_json frame)))
                  in
                  fst (Service.handle_query_stream service ~on_part q))
            in
            span ?parent:root "protocol.encode" (fun _ ->
                ignore (Json.to_string (Protocol.frame_to_json (Protocol.Done resp))));
            resp)
      in
      request_ns := Int64.add !request_ns (Int64.sub (now_ns ()) t0);
      replies := (r, resp) :: !replies;
      match (tr, twin, !handle_sid) with
      | Some tr, Some twin, Some parent -> probe tr gc twin ~req ~parent r
      | _ -> ())
    requests;
  let s1 = Gc.quick_stat () in
  ( {
      request_ns = !request_ns;
      requests = Array.length requests;
      minor_words = s1.minor_words -. s0.minor_words;
      major_collections = s1.major_collections - s0.major_collections;
      replies = List.rev !replies;
    },
    Option.map Tracer.spans tr,
    gc )

(* Median time of [reps] calls of [f], in milliseconds. *)
let time_ms ~reps f =
  Stat.median
    (List.init reps (fun _ ->
         let t0 = now_ns () in
         f ();
         Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6))

(* Corpus-load cost per document in both formats: opening the [.wpidx]
   index and parsing plus indexing the XML.  [files] pairs each
   document's .wpidx path with its .xml path. *)
let load_costs files =
  let reps = 3 in
  let open_ms =
    List.map
      (fun (wpidx, _) ->
        time_ms ~reps (fun () ->
            match Wp_storage.Index_file.open_index wpidx with
            | Ok _ -> ()
            | Error e -> failwith (Wp_storage.Index_file.error_message e)))
      files
  in
  let xml_ms =
    List.map
      (fun (_, xml) ->
        time_ms ~reps (fun () ->
            match Catalog.read_index xml with
            | Ok _ -> ()
            | Error m -> failwith m))
      files
  in
  (Stat.median open_ms, Stat.median xml_ms)
