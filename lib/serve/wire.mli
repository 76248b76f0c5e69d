(** Transport framing — length-prefixed JSON frames over Unix-domain
    sockets.

    Every frame is a 4-byte big-endian payload length followed by that
    many bytes of UTF-8 JSON ({!Protocol}).  {!Client} reads and writes
    whole frames with these blocking helpers; the server ({!Event})
    extracts frames incrementally from its non-blocking read buffers
    and shares only the {!max_frame} cap. *)

val max_frame : int
(** Frame payload cap (16 MiB); longer frames are a protocol error. *)

val write_frame : Unix.file_descr -> string -> (unit, string) result
val read_frame : Unix.file_descr -> (string, string) result
(** Blocking whole-frame I/O; [Error] on EOF, short reads or oversized
    frames. *)
