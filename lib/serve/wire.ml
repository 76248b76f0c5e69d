let max_frame = 16 * 1024 * 1024

let rec write_all fd buf pos len =
  if len > 0 then begin
    let n = Unix.write fd buf pos len in
    write_all fd buf (pos + n) (len - n)
  end

let rec read_all fd buf pos len =
  if len = 0 then true
  else
    match Unix.read fd buf pos len with
    | 0 -> false
    | n -> read_all fd buf (pos + n) (len - n)

let frame payload =
  let n = String.length payload in
  let buf = Bytes.create (4 + n) in
  Bytes.set_int32_be buf 0 (Int32.of_int n);
  Bytes.blit_string payload 0 buf 4 n;
  Bytes.unsafe_to_string buf

let payload_length byte =
  let b i = Char.code (byte i) in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let write_frame fd payload =
  let n = String.length payload in
  if n > max_frame then
    Result.Error (Printf.sprintf "frame too large (%d bytes)" n)
  else
    match write_all fd (Bytes.unsafe_of_string (frame payload)) 0 (4 + n) with
    | () -> Result.Ok ()
    | exception Unix.Unix_error (e, _, _) ->
        Result.Error (Unix.error_message e)

let read_frame fd =
  let hdr = Bytes.create 4 in
  match read_all fd hdr 0 4 with
  | false -> Result.Error "connection closed"
  | true ->
      let n = payload_length (Bytes.get hdr) in
      if n > max_frame then
        Result.Error (Printf.sprintf "frame too large (%d bytes)" n)
      else begin
        let payload = Bytes.create n in
        match read_all fd payload 0 n with
        | true -> Result.Ok (Bytes.unsafe_to_string payload)
        | false -> Result.Error "connection closed mid-frame"
        | exception Unix.Unix_error (e, _, _) ->
            Result.Error (Unix.error_message e)
      end
  | exception Unix.Unix_error (e, _, _) -> Result.Error (Unix.error_message e)
