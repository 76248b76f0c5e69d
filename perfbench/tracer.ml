(* In-memory spans for the traced replay.  A span records its name,
   start, end, parent and the id of the request it belongs to; spans
   stay in memory until [write] dumps them at the end of the run. *)

type span = {
  sid : int;
  name : string;
  req : int;
  parent : int option;
  start_ns : int64;
  mutable end_ns : int64;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }

let now_ns = Whirlpool.Clock.now_ns

(* Run [f] inside a span; [f] receives the span id so it can parent
   further spans.  With no tracer the call is [f] alone, which is how
   the untraced replay runs the identical code. *)
let span tr ~req ?parent name f =
  match tr with
  | None -> f None
  | Some t ->
      let s =
        { sid = t.next; name; req; parent; start_ns = now_ns (); end_ns = 0L }
      in
      t.next <- t.next + 1;
      t.spans <- s :: t.spans;
      Fun.protect
        ~finally:(fun () -> s.end_ns <- now_ns ())
        (fun () -> f (Some s.sid))

(* Record an already-timed span. *)
let add t ~req ?parent name ~start_ns ~end_ns =
  t.spans <- { sid = t.next; name; req; parent; start_ns; end_ns } :: t.spans;
  t.next <- t.next + 1

let spans t = List.rev t.spans

let duration_ns s = Int64.sub s.end_ns s.start_ns

let ms_of_ns ns = Int64.to_float ns /. 1e6

(* A span's self time: its duration minus the durations of its direct
   children.  A child either runs nested inside its parent (one thread,
   so children are disjoint) or is recorded with [add] for work the
   parent did that was replayed outside it. *)
let self_times spans =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      match s.parent with
      | None -> ()
      | Some p ->
          let prev = Option.value (Hashtbl.find_opt child_ns p) ~default:0L in
          Hashtbl.replace child_ns p (Int64.add prev (duration_ns s)))
    spans;
  List.map
    (fun s ->
      let c = Option.value (Hashtbl.find_opt child_ns s.sid) ~default:0L in
      (s, Int64.sub (duration_ns s) c))
    spans

(* Durations in milliseconds of every span called [name]. *)
let durations_ms spans name =
  List.filter_map
    (fun s -> if s.name = name then Some (ms_of_ns (duration_ns s)) else None)
    spans

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (s, self_ns) ->
          Printf.fprintf oc
            "{\"sid\":%d,\"name\":%S,\"req\":%d,\"parent\":%s,\"start_ns\":%Ld,\"end_ns\":%Ld,\"self_ns\":%Ld}\n"
            s.sid s.name s.req
            (match s.parent with None -> "null" | Some p -> string_of_int p)
            s.start_ns s.end_ns self_ns)
        (self_times spans))
