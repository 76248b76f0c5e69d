(* The event-driven serve tier.

   One loop thread multiplexes every connection with [Unix.select]:
   non-blocking reads feed per-connection buffers, complete frames are
   parsed and dispatched, and replies drain from per-connection
   outboxes when the socket is writable.  The bounded worker pool is
   kept strictly for query execution — the loop thread answers control
   operations (ping, metrics, hello, stop) inline, so a saturated pool
   never makes the service unobservable, and it never blocks on any
   one connection, so N connections cost one thread instead of N.

   Workers communicate with the loop only through outboxes (a
   mutex-guarded byte buffer per connection) plus a self-pipe write
   that wakes the select; they never touch a socket.  That makes
   streaming safe from any domain: the engines' [on_certified] hook —
   which the multi-threaded engine fires from its router domain —
   simply appends a [Part] frame and wakes the loop.

   Fd hygiene on abnormal disconnect: every connection fd stays in the
   read set even while its query runs, so a client that vanishes
   mid-stream surfaces as EOF immediately; the loop closes the fd,
   flips the connection's [cancelled] flag — or-ed into the engine's
   [should_stop], cancelling the run at its next iteration boundary —
   and holds the connection slot until the in-flight count drains, so
   no socket and no slot ever leaks to a dead client.

   Lock discipline matches the rest of the tier: every mutex is held
   through [with_lock] (exception-safe), critical sections only touch
   buffers and counters — all socket I/O happens outside any lock. *)

module Json = Wp_json.Json

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

type conn_kind = Wire_conn | Http_conn

type conn = {
  fd : Unix.file_descr;
  kind : conn_kind;
  rbuf : Buffer.t;  (* loop thread only *)
  omutex : Mutex.t;  (* guards outbox, inflight, close_after_flush *)
  outbox : Buffer.t;  (* bytes awaiting a writable socket *)
  cancelled : bool Atomic.t;  (* read by should_stop on worker domains *)
  mutable inflight : int;  (* queries submitted, replies not yet queued *)
  mutable close_after_flush : bool;  (* HTTP: one reply, then close *)
  mutable version : int;  (* negotiated protocol version; loop thread *)
  mutable gone : bool;  (* loop thread: fd closed, slot held until drain *)
  mutable http_dispatched : bool;  (* loop thread *)
}

type server = {
  socket : string;
  listener : Unix.file_descr;
  http_listener : Unix.file_descr option;
  service : Service.t;
  pool : Pool.Real.t;
  wake_r : Unix.file_descr;  (* self-pipe: workers wake the select *)
  wake_w : Unix.file_descr;
  mutex : Mutex.t;  (* guards stopping + conns *)
  mutable stopping : bool;
  mutable conns : conn list;
}

let conn_count server = with_lock server.mutex (fun () -> List.length server.conns)

let http_port server =
  match server.http_listener with
  | None -> None
  | Some fd -> (
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> Some port
      | Unix.ADDR_UNIX _ -> None)

(* Wake the loop from any thread.  The pipe is non-blocking: a full
   pipe means a wake-up is already pending, which is all we need. *)
let wake server =
  let b = Bytes.make 1 '!' in
  match Unix.write server.wake_w b 0 1 with
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

let request_stop server =
  with_lock server.mutex (fun () -> server.stopping <- true);
  wake server

(* --- enqueueing output --- *)

let frame_string payload =
  let n = String.length payload in
  let buf = Bytes.create (4 + n) in
  Bytes.set buf 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set buf 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set buf 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set buf 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 buf 4 n;
  Bytes.unsafe_to_string buf

(* Append one wire frame to the connection's outbox.  Callable from any
   thread; the caller wakes the loop when not already on it. *)
let enqueue_json conn json =
  let payload = Json.to_string json in
  if String.length payload <= Wire.max_frame then
    let framed = frame_string payload in
    with_lock conn.omutex (fun () -> Buffer.add_string conn.outbox framed)

let send_response conn resp =
  enqueue_json conn (Protocol.response_to_json resp)

(* --- disconnect / reclaim --- *)

let disconnect conn =
  if not conn.gone then begin
    conn.gone <- true;
    Atomic.set conn.cancelled true;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())
  end

(* --- wire dispatch (loop thread) --- *)

let submit_query server conn (q : Protocol.query) =
  let version = conn.version in
  with_lock conn.omutex (fun () -> conn.inflight <- conn.inflight + 1);
  let on_part =
    if version >= 2 then begin
      let seq = ref 0 in
      Some
        (fun answer ->
          let frame = Protocol.Part { id = q.id; seq = !seq; answer } in
          incr seq;
          enqueue_json conn (Protocol.frame_to_json frame);
          wake server)
    end
    else None
  in
  let job () =
    let cancelled () = Atomic.get conn.cancelled in
    let resp, _streamed =
      Service.handle_query_stream server.service ~cancelled ?on_part q
    in
    enqueue_json conn
      (if version >= 2 then Protocol.frame_to_json (Protocol.Done resp)
       else Protocol.response_to_json resp);
    with_lock conn.omutex (fun () -> conn.inflight <- conn.inflight - 1);
    wake server
  in
  if not (Pool.Real.submit server.pool job) then begin
    with_lock conn.omutex (fun () -> conn.inflight <- conn.inflight - 1);
    Service.record_shed server.service;
    send_response conn (Protocol.overloaded_response ~id:q.id)
  end

let dispatch_wire server conn payload =
  match Protocol.parse_request payload with
  | Result.Error msg ->
      send_response conn (Protocol.error_response ~id:0 ("bad request: " ^ msg))
  | Result.Ok (Protocol.Query q) ->
      if with_lock server.mutex (fun () -> server.stopping) then begin
        Service.record_shed server.service;
        send_response conn (Protocol.overloaded_response ~id:q.id)
      end
      else submit_query server conn q
  | Result.Ok req -> (
      match Service.handle server.service req with
      | `Reply r ->
          (* Only a Hello reply carries a version: it becomes the
             connection's negotiated one. *)
          Option.iter (fun v -> conn.version <- v) r.Protocol.version;
          send_response conn r
      | `Stop r ->
          send_response conn r;
          with_lock server.mutex (fun () -> server.stopping <- true))

(* --- HTTP gateway (same loop) --- *)

let http_response_text ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let http_reply conn ~status ~content_type body =
  let text = http_response_text ~status ~content_type body in
  with_lock conn.omutex (fun () ->
      Buffer.add_string conn.outbox text;
      conn.close_after_flush <- true)

let http_reply_json conn ~status json =
  http_reply conn ~status ~content_type:"application/json"
    (Json.to_string json)

let http_status_of (resp : Protocol.response) =
  match resp.Protocol.status with
  | Protocol.Ok | Protocol.Partial -> "200 OK"
  | Protocol.Overloaded -> "503 Service Unavailable"
  | Protocol.Error -> (
      match resp.Protocol.code with
      | Some Protocol.Bad_request | Some Protocol.Lint_rejected ->
          "400 Bad Request"
      | Some _ | None -> "500 Internal Server Error")

let http_submit_query server conn (q : Protocol.query) =
  with_lock conn.omutex (fun () -> conn.inflight <- conn.inflight + 1);
  let job () =
    let cancelled () = Atomic.get conn.cancelled in
    let resp, _streamed =
      Service.handle_query_stream server.service ~cancelled q
    in
    let body = Json.to_string (Protocol.response_to_json resp) in
    let text =
      http_response_text ~status:(http_status_of resp)
        ~content_type:"application/json" body
    in
    with_lock conn.omutex (fun () ->
        Buffer.add_string conn.outbox text;
        conn.close_after_flush <- true;
        conn.inflight <- conn.inflight - 1);
    wake server
  in
  if not (Pool.Real.submit server.pool job) then begin
    with_lock conn.omutex (fun () -> conn.inflight <- conn.inflight - 1);
    Service.record_shed server.service;
    http_reply_json conn ~status:"503 Service Unavailable"
      (Protocol.response_to_json (Protocol.overloaded_response ~id:0))
  end

let http_error conn ~status msg =
  http_reply_json conn ~status
    (Json.Obj [ ("error", Json.String msg) ])

(* The /query body is the wire query object without the envelope: [op]
   defaults to "query" and [id] to 0, so
   [curl -d '{"query":"//a[./b]"}' :port/query] just works, while a
   full wire request body is accepted unchanged. *)
let http_query_request body =
  match Json.of_string body with
  | Result.Error msg -> Result.Error ("body is not JSON: " ^ msg)
  | Result.Ok (Json.Obj fields) ->
      let add name v fs =
        if List.mem_assoc name fs then fs else (name, v) :: fs
      in
      let fields =
        fields
        |> add "op" (Json.String "query")
        |> add "id" (Json.Int 0)
      in
      Protocol.request_of_json (Json.Obj fields)
  | Result.Ok _ -> Result.Error "body must be a JSON object"

let http_route server conn ~meth ~path ~body =
  match (meth, path) with
  | "GET", "/healthz" ->
      http_reply conn ~status:"200 OK" ~content_type:"text/plain" "ok\n"
  | "GET", "/metrics" ->
      http_reply conn ~status:"200 OK"
        ~content_type:"text/plain; version=0.0.4"
        (Service.prometheus server.service)
  | "GET", "/metrics.json" ->
      http_reply_json conn ~status:"200 OK"
        (Service.metrics_json server.service)
  | "POST", "/query" -> (
      match http_query_request body with
      | Result.Error msg -> http_error conn ~status:"400 Bad Request" msg
      | Result.Ok (Protocol.Query q) ->
          if with_lock server.mutex (fun () -> server.stopping) then begin
            Service.record_shed server.service;
            http_reply_json conn ~status:"503 Service Unavailable"
              (Protocol.response_to_json
                 (Protocol.overloaded_response ~id:q.id))
          end
          else http_submit_query server conn q
      | Result.Ok _ ->
          http_error conn ~status:"400 Bad Request"
            "only op \"query\" is served over HTTP")
  | _ ->
      http_error conn ~status:"404 Not Found"
        (Printf.sprintf "no route %s %s" meth path)

let find_crlfcrlf s =
  let n = String.length s in
  let rec scan i =
    if i + 3 >= n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else scan (i + 1)
  in
  scan 0
[@@wp.bounded "scan advances one byte per step over a finite string"]

let content_length headers =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ':' with
      | Some i
        when String.lowercase_ascii (String.sub line 0 i) = "content-length"
        -> (
          match
            int_of_string_opt
              (String.trim
                 (String.sub line (i + 1) (String.length line - i - 1)))
          with
          | Some n when n >= 0 -> n
          | _ -> acc)
      | _ -> acc)
    0 headers

let http_max_head = 64 * 1024

let http_process server conn =
  if not conn.http_dispatched then begin
    let s = Buffer.contents conn.rbuf in
    match find_crlfcrlf s with
    | None ->
        if String.length s > http_max_head then begin
          conn.http_dispatched <- true;
          http_error conn ~status:"431 Request Header Fields Too Large"
            "headers too large"
        end
    | Some hdr_end -> (
        let head = String.sub s 0 hdr_end in
        match String.split_on_char '\r' head |> List.concat_map (fun part ->
                  String.split_on_char '\n' part)
              |> List.filter (fun l -> l <> "")
        with
        | [] ->
            conn.http_dispatched <- true;
            http_error conn ~status:"400 Bad Request" "empty request"
        | request_line :: headers -> (
            let body_start = hdr_end + 4 in
            let clen = content_length headers in
            if String.length s >= body_start + clen then begin
              conn.http_dispatched <- true;
              let body = String.sub s body_start clen in
              match String.split_on_char ' ' request_line with
              | meth :: path :: _ -> http_route server conn ~meth ~path ~body
              | _ ->
                  http_error conn ~status:"400 Bad Request"
                    "malformed request line"
            end))
  end

(* --- reading (loop thread) --- *)

let read_chunk = Bytes.create 65536

(* Drain every complete frame out of the connection's read buffer. *)
let process_wire server conn =
  let rec frames () =
    let len = Buffer.length conn.rbuf in
    if len >= 4 then begin
      let b i = Char.code (Buffer.nth conn.rbuf i) in
      let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
      if n > Wire.max_frame then disconnect conn
      else if len >= 4 + n then begin
        let payload = Buffer.sub conn.rbuf 4 n in
        let rest = Buffer.sub conn.rbuf (4 + n) (len - 4 - n) in
        Buffer.clear conn.rbuf;
        Buffer.add_string conn.rbuf rest;
        dispatch_wire server conn payload;
        frames ()
      end
    end
  in
  frames ()
[@@wp.bounded
  "each iteration removes one complete frame (>= 4 bytes) from the read \
   buffer, which only the loop thread refills between select rounds"]

let read_conn server conn =
  match Unix.read conn.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 -> disconnect conn
  | n ->
      Buffer.add_subbytes conn.rbuf read_chunk 0 n;
      (match conn.kind with
      | Wire_conn -> process_wire server conn
      | Http_conn -> http_process server conn)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> disconnect conn

(* --- writing (loop thread) --- *)

let flush_conn conn =
  let data =
    with_lock conn.omutex (fun () ->
        let s = Buffer.contents conn.outbox in
        Buffer.clear conn.outbox;
        s)
  in
  let requeue rest =
    (* Unwritten bytes go back in front of anything a worker enqueued
       while the socket was busy, preserving frame order. *)
    with_lock conn.omutex (fun () ->
        let tail = Buffer.contents conn.outbox in
        Buffer.clear conn.outbox;
        Buffer.add_string conn.outbox rest;
        Buffer.add_string conn.outbox tail)
  in
  if String.length data > 0 then begin
    match Unix.write_substring conn.fd data 0 (String.length data) with
    | n -> if n < String.length data then
          requeue (String.sub data n (String.length data - n))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        requeue data
    | exception Unix.Unix_error _ -> disconnect conn
  end

(* --- accepting (loop thread) --- *)

let accept_conns server lfd kind =
  let rec accept_one () =
    match Unix.accept lfd with
    | fd, _ ->
        if with_lock server.mutex (fun () -> server.stopping) then (
          try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          Unix.set_nonblock fd;
          let conn =
            {
              fd;
              kind;
              rbuf = Buffer.create 512;
              omutex = Mutex.create ();
              outbox = Buffer.create 512;
              cancelled = Atomic.make false;
              inflight = 0;
              close_after_flush = false;
              version = 1;
              gone = false;
              http_dispatched = false;
            }
          in
          with_lock server.mutex (fun () ->
              server.conns <- conn :: server.conns)
        end;
        accept_one ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> ()
  in
  accept_one ()
[@@wp.bounded
  "each step accepts one queued connection; returns at EWOULDBLOCK once \
   the kernel backlog is drained"]

let drain_wake server =
  let buf = Bytes.create 64 in
  let rec drain () =
    match Unix.read server.wake_r buf 0 (Bytes.length buf) with
    | n when n = Bytes.length buf -> drain ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  drain ()
[@@wp.bounded
  "each step consumes 64 pending wake bytes from a bounded-capacity \
   non-blocking pipe; a short or failed read ends the drain"]

(* Drop connections whose slot can be reclaimed: vanished clients once
   their in-flight queries have drained, and one-shot HTTP connections
   once their reply is flushed. *)
let reap server conns =
  let removable conn =
    let inflight, empty, close_f =
      with_lock conn.omutex (fun () ->
          (conn.inflight, Buffer.length conn.outbox = 0, conn.close_after_flush))
    in
    if conn.gone then inflight = 0
    else if close_f && empty && inflight = 0 then begin
      disconnect conn;
      true
    end
    else false
  in
  let dead = List.filter removable conns in
  if dead <> [] then
    with_lock server.mutex (fun () ->
        server.conns <-
          List.filter (fun c -> not (List.memq c dead)) server.conns)

let default_workers () = max 1 (Domain.recommended_domain_count () - 1)

let listen_unix socket =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.bind listener (Unix.ADDR_UNIX socket);
    Unix.listen listener 64;
    Unix.set_nonblock listener;
    listener
  with e ->
    (try Unix.close listener with Unix.Unix_error _ -> ());
    raise e

let listen_http port =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt listener Unix.SO_REUSEADDR true;
    Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen listener 64;
    Unix.set_nonblock listener;
    listener
  with e ->
    (try Unix.close listener with Unix.Unix_error _ -> ());
    raise e

let serve ?workers ?(queue_depth = 64) ?http ?on_ready ~socket ~service () =
  let workers =
    match workers with Some w -> max 1 w | None -> default_workers ()
  in
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> () (* no sigpipe on this platform *));
  match listen_unix socket with
  | exception Unix.Unix_error (e, _, arg) ->
      Result.Error
        (Printf.sprintf "cannot listen on %s: %s%s" socket
           (Unix.error_message e)
           (if arg = "" then "" else " (" ^ arg ^ ")"))
  | listener -> (
      match Option.map listen_http http with
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close listener with Unix.Unix_error _ -> ());
          (try Unix.unlink socket with Unix.Unix_error _ -> ());
          Result.Error
            (Printf.sprintf "cannot listen on http port: %s"
               (Unix.error_message e))
      | http_listener ->
          let wake_r, wake_w = Unix.pipe () in
          Unix.set_nonblock wake_r;
          Unix.set_nonblock wake_w;
          let server =
            {
              socket;
              listener;
              http_listener;
              service;
              pool = Pool.Real.create ~workers ~queue_depth ();
              wake_r;
              wake_w;
              mutex = Mutex.create ();
              stopping = false;
              conns = [];
            }
          in
          (match on_ready with None -> () | Some f -> f server);
          (* [grace] bounds the post-stop flush: once stopping with no
             queries in flight, unflushed outboxes (a stop reply to a
             client that never reads) get a bounded number of rounds
             before the loop exits anyway. *)
          let rec loop grace =
            let stopping =
              with_lock server.mutex (fun () -> server.stopping)
            in
            let conns = with_lock server.mutex (fun () -> server.conns) in
            let live = List.filter (fun c -> not c.gone) conns in
            let busy c =
              with_lock c.omutex (fun () ->
                  c.inflight > 0 || Buffer.length c.outbox > 0)
            in
            if stopping && not (List.exists busy conns) then ()
            else if stopping && grace = 0 then ()
            else begin
              let pending c =
                with_lock c.omutex (fun () -> Buffer.length c.outbox > 0)
              in
              let rfds =
                (server.wake_r :: server.listener
                 ::
                 (match server.http_listener with
                 | Some l -> [ l ]
                 | None -> []))
                @ List.map (fun c -> c.fd) live
              in
              let wfds =
                List.filter_map
                  (fun c -> if pending c then Some c.fd else None)
                  live
              in
              match Unix.select rfds wfds [] 0.2 with
              | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                  loop grace
              | readable, writable, _ ->
                  if List.mem server.wake_r readable then drain_wake server;
                  if List.mem server.listener readable then
                    accept_conns server server.listener Wire_conn;
                  (match server.http_listener with
                  | Some l when List.mem l readable ->
                      accept_conns server l Http_conn
                  | Some _ | None -> ());
                  List.iter
                    (fun c ->
                      if (not c.gone) && List.mem c.fd writable then
                        flush_conn c)
                    live;
                  List.iter
                    (fun c ->
                      if (not c.gone) && List.mem c.fd readable then
                        read_conn server c)
                    live;
                  reap server conns;
                  let stopping =
                    with_lock server.mutex (fun () -> server.stopping)
                  in
                  let inflight c = with_lock c.omutex (fun () -> c.inflight) in
                  let idle =
                    stopping
                    && List.for_all (fun c -> inflight c = 0) conns
                  in
                  loop (if idle then grace - 1 else grace)
            end
          in
          loop 50;
          Pool.Real.shutdown server.pool;
          let conns = with_lock server.mutex (fun () -> server.conns) in
          List.iter disconnect conns;
          with_lock server.mutex (fun () -> server.conns <- []);
          (try Unix.close server.listener with Unix.Unix_error _ -> ());
          (match server.http_listener with
          | Some l -> ( try Unix.close l with Unix.Unix_error _ -> ())
          | None -> ());
          (try Unix.close server.wake_r with Unix.Unix_error _ -> ());
          (try Unix.close server.wake_w with Unix.Unix_error _ -> ());
          (try Unix.unlink socket with Unix.Unix_error _ -> ());
          Result.Ok ())

let spawn ?workers ?queue_depth ?http ~socket ~service () =
  let m = Mutex.create () and c = Condition.create () in
  let started = ref None in
  let set r =
    with_lock m (fun () ->
        started := Some r;
        Condition.signal c)
  in
  let thread =
    Thread.create
      (fun () ->
        match
          serve ?workers ?queue_depth ?http
            ~on_ready:(fun server -> set (Result.Ok server))
            ~socket ~service ()
        with
        | Result.Ok () -> ()
        | Result.Error e -> set (Result.Error e))
      ()
  in
  let started =
    with_lock m (fun () ->
        while Option.is_none !started do
          Condition.wait c m
        done;
        Option.get !started)
  in
  match started with
  | Result.Ok server -> Result.Ok (server, thread)
  | Result.Error e ->
      Thread.join thread;
      Result.Error e
