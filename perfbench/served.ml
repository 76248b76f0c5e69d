(* The served run: the real server ([Wp_serve.Event] over [Service] and
   [Catalog]) in its own process, driven by closed-loop clients over
   [Wp_serve.Client].  A separate process keeps the server's runtime
   lock and GC apart from the load generator's. *)

module Protocol = Wp_serve.Protocol
module Client = Wp_serve.Client
module Json = Wp_json.Json

let now_ns = Whirlpool.Clock.now_ns
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* --- the server process --- *)

(* Body of [main.exe serve]: load the corpus directory and serve it until
   a Stop request. *)
let serve ~corpus ~socket ~workers =
  let catalog = Wp_serve.Catalog.create () in
  match Wp_serve.Catalog.load_dir catalog corpus with
  | Error m -> Error m
  | Ok _ ->
      let service = Wp_serve.Service.create ~catalog () in
      Wp_serve.Event.serve ~workers ~socket ~service ()

type server = { pid : int; socket : string }

let spawn ~exe ~corpus ~socket ~workers ~log =
  (try Sys.remove socket with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close devnull;
        Unix.close out)
      (fun () ->
        Unix.create_process exe
          [|
            exe; "serve"; "--corpus"; corpus; "--socket"; socket; "--workers";
            string_of_int workers;
          |]
          devnull out out)
  in
  { pid; socket }

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let ping socket =
  match Client.connect ~version:1 socket with
  | Error _ -> false
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.call c (Protocol.Ping { id = 0 }) with
          | Ok r -> r.Protocol.status = Protocol.Ok
          | Error _ -> false)

(* Seconds from [spawn] until the first successful Ping. *)
let boot ~exe ~corpus ~socket ~workers ~log =
  let t0 = now_ns () in
  let s = spawn ~exe ~corpus ~socket ~workers ~log in
  let rec wait () =
    if ping socket then Ok (s, seconds_since t0)
    else if exited s.pid then Error "server exited during boot (see its log)"
    else if seconds_since t0 > 120.0 then begin
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid);
      Error "server did not answer Ping within 120 s"
    end
    else begin
      (* Poll at ~2% of the time elapsed so far: fine enough for a 3 ms
         mapped boot, sparse enough that a 150 ms XML boot does not share
         its CPU with thousands of connect attempts. *)
      Unix.sleepf (Float.max 0.0001 (seconds_since t0 /. 50.0));
      wait ()
    end
  in
  wait ()

(* Graceful Stop, then reap; SIGKILL after 30 s. *)
let stop s =
  (match Client.connect ~version:1 s.socket with
  | Ok c ->
      ignore (Client.call c (Protocol.Stop { id = 0 }));
      Client.close c
  | Error _ -> ());
  let t0 = now_ns () in
  let rec reap () =
    if exited s.pid then ()
    else if seconds_since t0 > 30.0 then begin
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid)
    end
    else begin
      Unix.sleepf 0.01;
      reap ()
    end
  in
  reap ()

(* --- /proc --- *)

let read_proc path = In_channel.with_open_bin path In_channel.input_all

(* Linux reports process CPU time in clock ticks of 1/100 s. *)
let ticks_per_second = 100.0

(* utime + stime of [pid], in milliseconds. *)
let cpu_ms pid =
  let stat = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may contain spaces: split after its ')' *)
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* fields.(0) is field 3 (state): utime is field 14, stime field 15 *)
  let ticks = float_of_string fields.(11) +. float_of_string fields.(12) in
  ticks *. 1000.0 /. ticks_per_second

(* Peak resident set (VmHWM) of [pid], in MiB. *)
let peak_rss_mb pid =
  let status = read_proc (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)

(* --- the Metrics op --- *)

type server_counters = {
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
  shed : int;
}

let int_at path json =
  let rec go j = function
    | [] -> ( match j with Json.Int i -> i | Json.Float f -> int_of_float f | _ -> 0)
    | k :: rest -> (
        match Json.member k j with Some v -> go v rest | None -> 0)
  in
  go json path

let counters socket =
  match Client.connect ~version:1 socket with
  | Error e -> Error (Client.error_to_string e)
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match
            Client.call c
              (Protocol.Metrics { id = 0; format = Protocol.Json_format })
          with
          | Error e -> Error (Client.error_to_string e)
          | Ok { metrics = None; _ } -> Error "metrics reply without a body"
          | Ok { metrics = Some m; _ } ->
              Ok
                {
                  plan_hits = int_at [ "plan_cache"; "hits" ] m;
                  plan_misses = int_at [ "plan_cache"; "misses" ] m;
                  plan_evictions = int_at [ "plan_cache"; "evictions" ] m;
                  shed = int_at [ "shed" ] m;
                })

let diff a b =
  {
    plan_hits = b.plan_hits - a.plan_hits;
    plan_misses = b.plan_misses - a.plan_misses;
    plan_evictions = b.plan_evictions - a.plan_evictions;
    shed = b.shed - a.shed;
  }

(* --- closed-loop clients --- *)

type sample = {
  idx : int;  (** position in the request stream *)
  latency_ms : float;  (** send to complete reply *)
  ttfa_ms : float option;  (** send to first streamed Part *)
  reply : (Protocol.response, string) result;
}

(* One request over an open client.  Single-document replies stream
   (protocol v2); merged ones arrive as one Done frame. *)
let issue client ~idx (r : Seeded.request) =
  let t0 = now_ns () in
  let first = ref None in
  let on_part (_ : Protocol.answer) =
    if !first = None then first := Some (now_ns ())
  in
  let reply =
    Client.stream client ~on_part (Protocol.Query (Seeded.to_query ~id:idx r))
  in
  let t1 = now_ns () in
  let ms a b = Int64.to_float (Int64.sub b a) /. 1e6 in
  {
    idx;
    latency_ms = ms t0 t1;
    ttfa_ms = Option.map (fun t -> ms t0 t) !first;
    reply = Result.map_error Client.error_to_string reply;
  }

let connect_failed ~idx e =
  { idx; latency_ms = 0.0; ttfa_ms = None; reply = Error (Client.error_to_string e) }

(* Issue every request of [requests] once, in order, over one
   connection: the untimed warm-up pass. *)
let warm_up socket requests =
  match Client.connect socket with
  | Error e -> [ connect_failed ~idx:0 e ]
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () -> Array.to_list (Array.mapi (fun idx r -> issue c ~idx r) requests))

(* [clients] closed loops for [seconds]: each takes the next stream
   position, sends it and blocks for the reply.  A client whose
   connection fails records the failure and stops.  Returns the samples
   and the window's length in seconds (until the last reply). *)
let drive socket ~clients ~seconds (stream : Seeded.request array) =
  let next = Atomic.make 0 in
  let t0 = now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let results = Array.make clients [] in
  let client_loop slot =
    match Client.connect socket with
    | Error e ->
        results.(slot) <- [ connect_failed ~idx:(Atomic.fetch_and_add next 1) e ]
    | Ok c ->
        let rec go acc =
          if Int64.compare (now_ns ()) deadline >= 0 then acc
          else
            let idx = Atomic.fetch_and_add next 1 in
            let s = issue c ~idx stream.(idx mod Array.length stream) in
            match s.reply with
            | Ok _ -> go (s :: acc)
            | Error _ -> s :: acc
        in
        results.(slot) <- go [];
        Client.close c
  in
  let threads = List.init clients (fun slot -> Thread.create client_loop slot) in
  List.iter Thread.join threads;
  let samples =
    List.sort (fun a b -> Int.compare a.idx b.idx) (List.concat (Array.to_list results))
  in
  (samples, seconds_since t0)
