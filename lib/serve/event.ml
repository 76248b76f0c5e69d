(* The event-driven serve tier.

   One loop thread multiplexes every connection with [Unix.select]:
   non-blocking reads feed per-connection buffers, complete frames are
   parsed and dispatched, and replies drain from per-connection
   outboxes when the socket is writable.  The bounded worker pool is
   kept strictly for query execution — the loop thread answers control
   operations (ping, metrics, stop) inline, so a saturated pool
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

(* An HTTP connection's one request: its head is parsed once, when the
   blank line arrives, so body chunks are only counted until the
   declared length is in. *)
type http_state =
  | Reading_head
  | Reading_body of { request_line : string; body_start : int; length : int }
  | Dispatched

type conn = {
  fd : Unix.file_descr;
  kind : conn_kind;
  rbuf : Buffer.t;  (* loop thread only *)
  omutex : Mutex.t;  (* guards outbox, inflight, close_after_flush *)
  outbox : Buffer.t;  (* bytes awaiting a writable socket *)
  cancelled : bool Atomic.t;  (* read by should_stop on worker domains *)
  mutable inflight : int;  (* queries submitted, replies not yet queued *)
  mutable close_after_flush : bool;  (* HTTP: one reply, then close *)
  mutable gone : bool;  (* loop thread: fd closed, slot held until drain *)
  mutable http : http_state;  (* loop thread *)
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

(* Append reply bytes to the outbox; an HTTP connection carries one
   reply and closes once it is flushed.  Caller holds [conn.omutex]. *)
let append_reply conn text =
  Buffer.add_string conn.outbox text;
  if conn.kind = Http_conn then conn.close_after_flush <- true

(* Callable from any thread; the caller wakes the loop when not already
   on it. *)
let enqueue conn text = with_lock conn.omutex (fun () -> append_reply conn text)

(* One wire frame.  A payload past [Wire.max_frame] is dropped: no
   client could read it. *)
let wire_frame frame =
  let payload = Json.to_string (Protocol.frame_to_json frame) in
  if String.length payload <= Wire.max_frame then Wire.frame payload else ""

let wire_done resp = wire_frame (Protocol.Done resp)

(* --- disconnect / reclaim --- *)

let disconnect conn =
  if not conn.gone then begin
    conn.gone <- true;
    Atomic.set conn.cancelled true;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())
  end

(* --- query admission (loop thread) --- *)

(* Admit one query from either front end: shed it while the server is
   stopping or when the pool is full, else run it on a worker.  [reply]
   frames the finished (or shed) response for this connection. *)
let submit_query server conn ?on_part ~reply (q : Protocol.query) =
  let shed () =
    Service.record_shed server.service;
    enqueue conn (reply (Protocol.overloaded_response ~id:q.id))
  in
  if with_lock server.mutex (fun () -> server.stopping) then shed ()
  else begin
    with_lock conn.omutex (fun () -> conn.inflight <- conn.inflight + 1);
    let job () =
      let cancelled () = Atomic.get conn.cancelled in
      let resp, _streamed =
        Service.handle_query_stream server.service ~cancelled ?on_part q
      in
      let text = reply resp in
      with_lock conn.omutex (fun () ->
          append_reply conn text;
          conn.inflight <- conn.inflight - 1);
      wake server
    in
    if not (Pool.Real.submit server.pool job) then begin
      with_lock conn.omutex (fun () -> conn.inflight <- conn.inflight - 1);
      shed ()
    end
  end

(* --- wire dispatch (loop thread) --- *)

(* A wire query streams certified answers as [Part] frames and ends
   with a [Done] frame. *)
let submit_wire_query server conn (q : Protocol.query) =
  let seq = ref 0 in
  let on_part answer =
    let frame = Protocol.Part { id = q.id; seq = !seq; answer } in
    incr seq;
    enqueue conn (wire_frame frame);
    wake server
  in
  submit_query server conn ~on_part q ~reply:wire_done

let dispatch_wire server conn payload =
  match Protocol.parse_request payload with
  | Result.Error msg ->
      enqueue conn
        (wire_done
           (Protocol.error_response ~id:0 ~code:Protocol.Bad_request
              ("bad request: " ^ msg)))
  | Result.Ok (Protocol.Query q) -> submit_wire_query server conn q
  | Result.Ok req -> (
      match Service.handle server.service req with
      | `Reply r -> enqueue conn (wire_done r)
      | `Stop r ->
          enqueue conn (wire_done r);
          with_lock server.mutex (fun () -> server.stopping <- true))

(* --- HTTP gateway (same loop) --- *)

let http_response_text ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let http_reply conn ~status ~content_type body =
  enqueue conn (http_response_text ~status ~content_type body)

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

let http_query_reply resp =
  http_response_text ~status:(http_status_of resp)
    ~content_type:"application/json"
    (Json.to_string (Protocol.response_to_json resp))

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
          submit_query server conn q ~reply:http_query_reply
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

(* The declared body length: 0 without a Content-Length header, an
   error for a value that is not a plain decimal number.  Digits too
   many for an int are as oversized as any other length past the cap. *)
let content_length headers =
  List.fold_left
    (fun acc line ->
      match (acc, String.index_opt line ':') with
      | Ok _, Some i
        when String.lowercase_ascii (String.sub line 0 i) = "content-length"
        ->
          let v =
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          in
          if v <> "" && String.for_all (fun c -> c >= '0' && c <= '9') v then
            Ok (Option.value (int_of_string_opt v) ~default:max_int)
          else Error (Printf.sprintf "bad Content-Length %S" v)
      | _ -> acc)
    (Ok 0) headers

(* [Expect: 100-continue]: the client holds the body back until an
   interim [100 Continue] (or a final status) arrives. *)
let expects_continue headers =
  List.exists
    (fun line ->
      match String.index_opt line ':' with
      | Some i ->
          String.lowercase_ascii (String.sub line 0 i) = "expect"
          && String.lowercase_ascii
               (String.trim
                  (String.sub line (i + 1) (String.length line - i - 1)))
             = "100-continue"
      | None -> false)
    headers

let http_max_head = 64 * 1024

(* Route the request once its whole body is buffered. *)
let http_dispatch_when_complete server conn ~request_line ~body_start ~length =
  if Buffer.length conn.rbuf >= body_start + length then begin
    conn.http <- Dispatched;
    let body = Buffer.sub conn.rbuf body_start length in
    match String.split_on_char ' ' request_line with
    | meth :: path :: _ -> http_route server conn ~meth ~path ~body
    | _ -> http_error conn ~status:"400 Bad Request" "malformed request line"
  end

(* A body is refused before it is read when its declared length is
   malformed or past [Wire.max_frame], the cap wire frames share; a
   refused head gets only its final status.  An accepted one that asks
   for it gets [100 Continue] before its body is awaited. *)
let http_process server conn =
  match conn.http with
  | Dispatched -> ()
  | Reading_body { request_line; body_start; length } ->
      http_dispatch_when_complete server conn ~request_line ~body_start ~length
  | Reading_head -> (
      let s = Buffer.contents conn.rbuf in
      let fail ~status msg =
        conn.http <- Dispatched;
        http_error conn ~status msg
      in
      match find_crlfcrlf s with
      | None ->
          if String.length s > http_max_head then
            fail ~status:"431 Request Header Fields Too Large"
              "headers too large"
      | Some hdr_end -> (
          let head = String.sub s 0 hdr_end in
          match
            String.split_on_char '\r' head
            |> List.concat_map (String.split_on_char '\n')
            |> List.filter (fun l -> l <> "")
          with
          | [] -> fail ~status:"400 Bad Request" "empty request"
          | request_line :: headers -> (
              match content_length headers with
              | Error msg -> fail ~status:"400 Bad Request" msg
              | Ok length when length > Wire.max_frame ->
                  fail ~status:"413 Payload Too Large"
                    (Printf.sprintf "body exceeds %d bytes" Wire.max_frame)
              | Ok length ->
                  if expects_continue headers then
                    with_lock conn.omutex (fun () ->
                        Buffer.add_string conn.outbox
                          "HTTP/1.1 100 Continue\r\n\r\n");
                  let body_start = hdr_end + 4 in
                  conn.http <- Reading_body { request_line; body_start; length };
                  http_dispatch_when_complete server conn ~request_line
                    ~body_start ~length)))

(* --- reading (loop thread) --- *)

let read_chunk = Bytes.create 65536

(* Dispatch every complete frame in the connection's read buffer,
   consuming them by offset, then keep the unread tail once: a read
   that carries many pipelined frames copies each payload and the tail
   once, never the remaining buffer per frame. *)
let process_wire server conn =
  let len = Buffer.length conn.rbuf in
  let rec frames pos =
    if len - pos < 4 then pos
    else
      let n = Wire.payload_length (fun i -> Buffer.nth conn.rbuf (pos + i)) in
      if n > Wire.max_frame then begin
        disconnect conn;
        len
      end
      else if len - pos < 4 + n then pos
      else begin
        dispatch_wire server conn (Buffer.sub conn.rbuf (pos + 4) n);
        frames (pos + 4 + n)
      end
  in
  let pos = frames 0 in
  if pos > 0 then begin
    let rest = Buffer.sub conn.rbuf pos (len - pos) in
    Buffer.clear conn.rbuf;
    Buffer.add_string conn.rbuf rest
  end
[@@wp.bounded
  "each iteration consumes one complete frame (>= 4 bytes) of the read \
   buffer's fixed length"]

let read_conn server conn =
  match Unix.read conn.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 -> disconnect conn
  | n -> (
      match conn.kind with
      | Wire_conn ->
          Buffer.add_subbytes conn.rbuf read_chunk 0 n;
          process_wire server conn
      | Http_conn -> (
          (* One request per connection: bytes after it are dropped. *)
          match conn.http with
          | Dispatched -> ()
          | Reading_head | Reading_body _ ->
              Buffer.add_subbytes conn.rbuf read_chunk 0 n;
              http_process server conn))
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
              gone = false;
              http = Reading_head;
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

let run_server ~workers ~queue_depth ?http ?on_ready ~socket ~service () =
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

(* The pool sizes are checked before anything binds: a refused size
   leaves no listener and no socket file. *)
let serve ?workers ?(queue_depth = 64) ?http ?on_ready ~socket ~service () =
  let workers = Option.value workers ~default:(default_workers ()) in
  if workers < 1 then
    Result.Error (Printf.sprintf "workers must be >= 1 (got %d)" workers)
  else if queue_depth < 1 then
    Result.Error
      (Printf.sprintf "queue_depth must be >= 1 (got %d)" queue_depth)
  else run_server ~workers ~queue_depth ?http ?on_ready ~socket ~service ()

let spawn ?workers ?queue_depth ?http ~socket ~service () =
  let m = Mutex.create () and c = Condition.create () in
  let started = ref None in
  let set r =
    with_lock m (fun () ->
        started := Some r;
        Condition.signal c)
  in
  (* An exception before the listeners are up is a startup error: the
     caller is still waiting for one. *)
  let thread =
    Thread.create
      (fun () ->
        match
          serve ?workers ?queue_depth ?http
            ~on_ready:(fun server -> set (Result.Ok server))
            ~socket ~service ()
        with
        | Result.Ok () -> ()
        | Result.Error e -> set (Result.Error e)
        | exception exn ->
            if with_lock m (fun () -> Option.is_some !started) then raise exn
            else set (Result.Error (Printexc.to_string exn)))
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
