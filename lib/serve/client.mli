(** The first-class wire client — connect, request, iterate a streamed
    reply, close — shared by [wp_cli query --connect], [wp_cli ctl] and
    {!Loadgen}, replacing their hand-rolled frame loops.

    A client speaks the {!Wire} framing over a Unix-domain socket.
    {!connect} negotiates the protocol version with a [Hello] exchange
    (v2 by default); when the server answers [Hello] with version 1, or
    predates [Hello], the connection transparently degrades to buffered
    v1 replies, so callers never branch on the version themselves.

    Errors are typed: {!error.Connect_failed} before the socket is up,
    {!error.Io} for transport failures (including the server vanishing
    mid-reply), {!error.Protocol_violation} for frames that do not
    parse.  Clients are not thread-safe; use one per thread. *)

type error =
  | Connect_failed of string
  | Io of string
  | Protocol_violation of string

val error_to_string : error -> string

type t

val connect : ?version:int -> string -> (t, error) result
(** Connect to a server socket path.  [version] (default
    {!Protocol.current_version}) is the highest protocol version to
    offer; [1] skips the [Hello] exchange entirely and forces buffered
    replies.  Raises [Invalid_argument] on [version < 1]. *)

val version : t -> int
(** The negotiated protocol version (1 until proven otherwise). *)

val call : t -> Protocol.request -> (Protocol.response, error) result
(** Send one request and block for its complete reply.  On a v2
    connection any streamed [Part] frames are drained and discarded —
    the terminal [Done] always carries the full answer list, so the
    result is identical to a v1 buffered call. *)

val stream :
  t ->
  on_part:(Protocol.answer -> unit) ->
  Protocol.request ->
  (Protocol.response, error) result
(** As {!call}, but hand each certified answer to [on_part] the moment
    its [Part] frame arrives.  The returned [Done] response's [answers]
    include the streamed prefix in the same order.  On a v1 connection
    [on_part] never fires. *)

val close : t -> unit
