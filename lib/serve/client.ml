module Json = Wp_json.Json

type error =
  | Connect_failed of string
  | Io of string
  | Protocol_violation of string

let error_to_string = function
  | Connect_failed m -> "cannot connect: " ^ m
  | Io m -> "i/o error: " ^ m
  | Protocol_violation m -> "protocol violation: " ^ m

type t = { fd : Unix.file_descr }

let ( let* ) = Result.bind

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t req =
  let payload = Json.to_string (Protocol.request_to_json req) in
  Result.map_error (fun m -> Io m) (Wire.write_frame t.fd payload)

let read_reply t =
  let* raw = Result.map_error (fun m -> Io m) (Wire.read_frame t.fd) in
  Result.map_error (fun m -> Protocol_violation m) (Protocol.parse_frame raw)

(* One request, one reply: [Part] frames go to [on_part] as they
   arrive; the terminal [Done] response is returned.  A reply that does
   not stream is a single [Done], so [on_part] simply never fires. *)
let stream t ~on_part req =
  let* () = send t req in
  let rec drain () =
    let* frame = read_reply t in
    match frame with
    | Protocol.Part { answer; _ } ->
        on_part answer;
        drain ()
    | Protocol.Done r -> Result.Ok r
  in
  drain ()
[@@wp.bounded
  "one recursive step per received frame; the server closes every \
   streamed reply with a terminal Done, and a dropped connection \
   surfaces as an Io error from read_frame"]

(* Buffered call: the [Done] frame always carries the complete answer
   list (streamed prefix included), so discarding the parts loses
   nothing. *)
let call t req = stream t ~on_part:(fun (_ : Protocol.answer) -> ()) req

let connect ?version:_ path =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Result.Error (Connect_failed (Unix.error_message e))
  | fd -> (
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Result.Error
            (Connect_failed
               (Printf.sprintf "%s: %s" path (Unix.error_message e)))
      | () -> Result.Ok { fd })
