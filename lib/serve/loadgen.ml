module Json = Wp_json.Json

type point = {
  clients : int;
  requests : int;
  ok : int;
  partial : int;
  overloaded : int;
  errors : int;
  duration_s : float;
  throughput : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

type worker_acc = {
  mutable ok : int;
  mutable partial : int;
  mutable overloaded : int;
  mutable errors : int;
  mutable latencies : float list;  (* ms, client-side *)
}

let now_ns = Whirlpool.Clock.now_ns

let client_loop client queries ~algo ~t_end acc =
  let nq = Array.length queries in
  let i = ref 0 in
  let id = ref 0 in
  let continue = ref true in
  while !continue && Int64.compare (now_ns ()) t_end < 0 do
    let query = queries.(!i mod nq) in
    incr i;
    incr id;
    let req =
      Protocol.Query
        {
          id = !id;
          query;
          doc = None;
          k = None;
          deadline_ms = None;
          algo;
          routing = None;
          batch = None;
          use_cache = None;
          bound_push = None;
        }
    in
    let t0 = now_ns () in
    (match Client.call client req with
    | Result.Ok r -> (
        let ms = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6 in
        acc.latencies <- ms :: acc.latencies;
        match r.status with
        | Protocol.Ok -> acc.ok <- acc.ok + 1
        | Protocol.Partial -> acc.partial <- acc.partial + 1
        | Protocol.Overloaded -> acc.overloaded <- acc.overloaded + 1
        | Protocol.Error -> acc.errors <- acc.errors + 1)
    | Result.Error _ ->
        (* Transport failure: count it and stop this client — the
           connection is gone. *)
        acc.errors <- acc.errors + 1;
        continue := false)
  done

let run ?algo ~socket ~queries ~clients ~duration_s () =
  if queries = [] then Result.Error "no queries to issue"
  else if clients < 1 then Result.Error "need at least one client"
  else begin
    let queries = Array.of_list queries in
    let conns = ref [] in
    let connect_err = ref None in
    for _ = 1 to clients do
      match Client.connect socket with
      | Result.Ok c -> conns := c :: !conns
      | Result.Error e ->
          if !connect_err = None then
            connect_err := Some (Client.error_to_string e)
    done;
    match (!conns, !connect_err) with
    | [], Some e ->
        Result.Error (Printf.sprintf "no client could connect: %s" e)
    | [], None -> Result.Error "no client could connect"
    | conns, _ ->
        let t0 = now_ns () in
        let t_end = Int64.add t0 (Int64.of_float (duration_s *. 1e9)) in
        let accs =
          List.map
            (fun _ ->
              { ok = 0; partial = 0; overloaded = 0; errors = 0; latencies = [] })
            conns
        in
        let threads =
          List.map2
            (fun client acc ->
              Thread.create
                (fun () -> client_loop client queries ~algo ~t_end acc)
                ())
            conns accs
        in
        List.iter Thread.join threads;
        let elapsed_s = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9 in
        List.iter Client.close conns;
        let ok = List.fold_left (fun a c -> a + c.ok) 0 accs in
        let partial = List.fold_left (fun a c -> a + c.partial) 0 accs in
        let overloaded = List.fold_left (fun a c -> a + c.overloaded) 0 accs in
        let errors = List.fold_left (fun a c -> a + c.errors) 0 accs in
        let latencies = List.concat_map (fun c -> c.latencies) accs in
        let requests = ok + partial + overloaded + errors in
        let throughput =
          if elapsed_s > 0.0 then float_of_int requests /. elapsed_s else 0.0
        in
        Result.Ok
          {
            clients;
            requests;
            ok;
            partial;
            overloaded;
            errors;
            duration_s = elapsed_s;
            throughput;
            p50_ms = Metrics.percentile latencies 0.50;
            p95_ms = Metrics.percentile latencies 0.95;
            p99_ms = Metrics.percentile latencies 0.99;
            max_ms = List.fold_left Float.max 0.0 latencies;
          }
  end

let point_to_json p =
  let open Json in
  Obj
    [
      ("clients", Int p.clients);
      ("requests", Int p.requests);
      ("ok", Int p.ok);
      ("partial", Int p.partial);
      ("overloaded", Int p.overloaded);
      ("errors", Int p.errors);
      ("duration_s", Float p.duration_s);
      ("throughput_rps", Float p.throughput);
      ("p50_ms", Float p.p50_ms);
      ("p95_ms", Float p.p95_ms);
      ("p99_ms", Float p.p99_ms);
      ("max_ms", Float p.max_ms);
    ]

let ( let* ) = Result.bind
let client_err r = Result.map_error Client.error_to_string r

let fetch_metrics ~socket =
  let* client = client_err (Client.connect socket) in
  let reply =
    client_err
      (Client.call client
         (Protocol.Metrics { id = 0; format = Protocol.Json_format }))
  in
  Client.close client;
  let* r = reply in
  match r.metrics with
  | Some m -> Result.Ok m
  | None -> Result.Error "metrics reply carried no metrics object"

(* One streamed query, timing the first [Part] frame against the
   terminal [Done] — the client-side view of the time-to-first-answer
   metric the server records. *)
let ttfa_probe ?algo ?k ?doc ~socket ~query () =
  let* client = client_err (Client.connect socket) in
  let req =
    Protocol.Query
      {
        id = 1;
        query;
        doc;
        k;
        deadline_ms = None;
        algo;
        routing = None;
        batch = None;
        use_cache = None;
        bound_push = None;
      }
  in
  let t0 = now_ns () in
  let first_ms = ref None in
  let parts = ref 0 in
  let on_part (_ : Protocol.answer) =
    incr parts;
    if !first_ms = None then
      first_ms :=
        Some (Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6)
  in
  let reply = client_err (Client.stream client ~on_part req) in
  let total_ms = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6 in
  Client.close client;
  let* r = reply in
  let open Json in
  Result.Ok
    (Obj
       [
         ("query", String query);
         ("streamed", Int !parts);
         ("answers", Int (List.length r.Protocol.answers));
         ( "ttfa_ms",
           match !first_ms with Some ms -> Float ms | None -> Null );
         ("total_ms", Float total_ms);
         ( "ttfa_before_done",
           Bool
             (match !first_ms with
             | Some ms -> ms < total_ms
             | None -> false) );
       ])

type measured = {
  cold : point;
  warm : point;
  ttfa : Json.t option;
  server_metrics : Json.t;
}

(* The first document the server's metrics list: only single-document
   queries stream mid-query, so the TTFA probe pins it. *)
let first_document metrics =
  match Option.bind (Json.member "corpus" metrics) (Json.member "names") with
  | Some (Json.List (Json.String name :: _)) -> Some name
  | _ -> None

let measure ?algo ?ttfa_query ~socket ~queries ~clients ~duration_s () =
  let window () = run ?algo ~socket ~queries ~clients ~duration_s () in
  let* cold = window () in
  let* warm = window () in
  let* ttfa =
    match ttfa_query with
    | None -> Result.Ok None
    | Some query ->
        let* metrics = fetch_metrics ~socket in
        let doc = first_document metrics in
        Result.Ok
          (Some
             (match ttfa_probe ?algo ?doc ~socket ~query () with
             | Result.Ok j -> j
             | Result.Error e ->
                 Json.Obj
                   [ ("query", Json.String query); ("error", Json.String e) ]))
  in
  let* server_metrics = fetch_metrics ~socket in
  Result.Ok { cold; warm; ttfa; server_metrics }

let measured_fields m =
  [ ("cold", point_to_json m.cold); ("warm", point_to_json m.warm) ]
  @ (match m.ttfa with Some j -> [ ("ttfa", j) ] | None -> [])
  @ [ ("server_metrics", m.server_metrics) ]
