(** The first-class wire client — connect, request, iterate a streamed
    reply, close — shared by [wp_cli query --connect], [wp_cli ctl] and
    {!Loadgen}, replacing their hand-rolled frame loops.

    A client speaks the {!Wire} framing over a Unix-domain socket.
    Every reply is zero or more [Part] frames closed by a [Done]
    ({!Protocol.stream_frame}); {!call} drops the parts, {!stream}
    hands them over as they arrive.

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
(** Connect to a server socket path.  [version] is ignored: the wire
    has one protocol.  The argument stays because perfbench passes it;
    it goes with the next change to the benchmark's protocol. *)

val call : t -> Protocol.request -> (Protocol.response, error) result
(** Send one request and block for its complete reply.  Any streamed
    [Part] frames are drained and discarded — the terminal [Done]
    always carries the full answer list. *)

val stream :
  t ->
  on_part:(Protocol.answer -> unit) ->
  Protocol.request ->
  (Protocol.response, error) result
(** As {!call}, but hand each certified answer to [on_part] the moment
    its [Part] frame arrives.  The returned [Done] response's [answers]
    include the streamed prefix in the same order.  Only a query that
    resolves to one document streams; for any other request [on_part]
    never fires. *)

val close : t -> unit
