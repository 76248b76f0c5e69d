(** Transport framing — length-prefixed JSON frames over Unix-domain
    sockets.

    Every frame is a 4-byte big-endian payload length followed by that
    many bytes of UTF-8 JSON ({!Protocol}).  {!Client} reads and writes
    whole frames with these blocking helpers; the server ({!Event})
    extracts frames incrementally from its non-blocking read buffers
    and shares the header codec and the {!max_frame} cap. *)

val max_frame : int
(** Frame payload cap (16 MiB); longer frames are a protocol error. *)

val frame : string -> string
(** The 4-byte big-endian length header followed by the payload; the
    caller enforces {!max_frame}. *)

val payload_length : (int -> char) -> int
(** The payload length a frame header announces, given its bytes
    [0 .. 3]. *)

val write_frame : Unix.file_descr -> string -> (unit, string) result
val read_frame : Unix.file_descr -> (string, string) result
(** Blocking whole-frame I/O; [Error] on EOF, short reads or oversized
    frames. *)
