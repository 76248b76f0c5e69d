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

let write_frame fd payload =
  let n = String.length payload in
  if n > max_frame then
    Result.Error (Printf.sprintf "frame too large (%d bytes)" n)
  else begin
    let buf = Bytes.create (4 + n) in
    Bytes.set buf 0 (Char.chr ((n lsr 24) land 0xff));
    Bytes.set buf 1 (Char.chr ((n lsr 16) land 0xff));
    Bytes.set buf 2 (Char.chr ((n lsr 8) land 0xff));
    Bytes.set buf 3 (Char.chr (n land 0xff));
    Bytes.blit_string payload 0 buf 4 n;
    match write_all fd buf 0 (4 + n) with
    | () -> Result.Ok ()
    | exception Unix.Unix_error (e, _, _) ->
        Result.Error (Unix.error_message e)
  end

let read_frame fd =
  let hdr = Bytes.create 4 in
  match read_all fd hdr 0 4 with
  | false -> Result.Error "connection closed"
  | true ->
      let b i = Char.code (Bytes.get hdr i) in
      let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
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
