(** The service's wire vocabulary — JSON requests and reply frames.

    Every frame on the wire ({!Wire}) carries one JSON object.
    Requests select an operation with ["op"].  Every reply is a
    sequence of {!stream_frame}s: zero or more ["part"] frames, one
    certified answer each, closed by a ["done"] frame that echoes the
    request's ["id"] and carries a {!status} and the complete reply:

    {v
    -> {"op":"query","id":1,"query":"//item[./name]","doc":"a.xml",
        "k":10,"deadline_ms":250}
    <- {"id":1,"frame":"part","seq":0,
        "answer":{"doc":"a.xml","root":17,"dewey":"0.3.1",
                  "score":0.91,"progress":2}}
    <- {"id":1,"status":"ok","elapsed_ms":3.1,
        "answers":[{"doc":"a.xml","root":17,...}, ...],
        "stats":{...},"frame":"done"}
    v}

    Only a query that resolves to one document sends parts; merged
    queries and the control operations (ping, metrics, stop) send one
    ["done"].
    Omitting ["doc"] asks for the top-k merged across the whole corpus.
    [Overloaded] is the admission-control reply — the request was shed,
    not queued; [Partial] flags a top-k cut short by its deadline.

    Failed replies carry both a human-oriented ["error"] message and a
    machine-readable ["code"] from the closed {!error_code} vocabulary;
    clients dispatch on the code, the message is free to change. *)

type query = {
  id : int;
  query : string;  (** XPath tree-pattern text *)
  doc : string option;  (** catalog name; [None] = merged corpus *)
  k : int option;  (** [None] = service default *)
  deadline_ms : float option;  (** [None] = service default *)
  algo : string option;
      (** a {!Whirlpool.Engine.Config.algo} wire name ("whirlpool-s",
          "whirlpool-m", "lockstep", "lockstep-noprun", "twig");
          [None] = the server's configured default.
          Unknown names are a typed [Bad_request]. *)
  routing : string option;  (** as {!Whirlpool.Strategy.routing_of_string} *)
  batch : int option;
      (** set the removed bulk-routing width: a request carrying it (any
          value) is a [bad_request].  The field stays because perfbench
          builds the record; it goes with the next change to the
          benchmark's protocol. *)
  use_cache : bool option;
      (** toggled the removed candidate cache: a request carrying it
          is a [bad_request].  The field stays because perfbench builds
          the record; it goes with the next change to the benchmark's
          protocol. *)
  bound_push : bool option;
      (** toggled the removed cross-shard bound pushing: a request
          carrying it (any value) is a [bad_request].  The field stays
          because perfbench builds the record; it goes with the next
          change to the benchmark's protocol. *)
}

type metrics_format = Json_format | Prometheus

val metrics_format_to_string : metrics_format -> string
val metrics_format_of_string : string -> metrics_format option

type request =
  | Query of query
  | Metrics of { id : int; format : metrics_format }
      (** service-level metrics snapshot; [Prometheus] asks for the
          text-exposition page in [metrics_text] instead of the JSON
          object in [metrics] *)
  | Ping of { id : int }
  | Stop of { id : int }  (** graceful shutdown *)

type status = Ok | Partial | Overloaded | Error

val status_to_string : status -> string
val status_of_string : string -> status option

(** Stable machine-readable failure classes.  Wire strings —
    ["overloaded"], ["bad_request"], ["lint_rejected"],
    ["deadline_expired"], ["internal"] — are part of the protocol and
    never change meaning; new codes may be appended. *)
type error_code =
  | Code_overloaded  (** shed at admission; retry against less load *)
  | Bad_request  (** unparseable query, unknown document/algo/routing, bad k *)
  | Lint_rejected  (** static analysis refused the query as meaningless *)
  | Deadline_expired
      (** attached to [Partial] replies: the top-k was cut short *)
  | Internal  (** unexpected server-side failure *)

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option

val all_error_codes : error_code list
(** Every code, for exhaustive round-trip tests. *)

type answer = {
  doc : string;  (** catalog name of the document it came from *)
  root : int;
  dewey : string;
  score : float;
  progress : int;  (** servers the winning match had visited *)
}

type response = {
  id : int;
  status : status;
  error : string option;  (** set when [status = Error] *)
  code : error_code option;
      (** set for [Error], [Overloaded] and [Partial] replies *)
  answers : answer list;
  stats : Wp_json.Json.t option;  (** engine statistics, for queries *)
  metrics : Wp_json.Json.t option;  (** for [Metrics] with [Json_format] *)
  metrics_text : string option;
      (** Prometheus text exposition, for [Metrics] with [Prometheus] *)
  elapsed_ms : float;  (** server-side handling time *)
}

val ok_response :
  ?answers:answer list ->
  ?stats:Wp_json.Json.t ->
  ?metrics:Wp_json.Json.t ->
  ?metrics_text:string ->
  ?partial:bool ->
  id:int ->
  elapsed_ms:float ->
  unit ->
  response
(** [partial = true] sets [status = Partial] and
    [code = Some Deadline_expired]. *)

val error_response :
  id:int -> ?elapsed_ms:float -> code:error_code -> string -> response

val overloaded_response : id:int -> response

val request_to_json : request -> Wp_json.Json.t
val request_of_json : Wp_json.Json.t -> (request, string) result
val response_to_json : response -> Wp_json.Json.t
val response_of_json : Wp_json.Json.t -> (response, string) result

val parse_request : string -> (request, string) result
(** [Wp_json.Json.of_string] composed with {!request_of_json}. *)

val parse_response : string -> (response, string) result

(** One reply: zero or more [Part] frames — one certified answer each,
    [seq] counting from 0 — closed by a terminal [Done] carrying the
    full {!response}.  The [Done]'s [answers] list is the {e complete}
    top-k (streamed prefix included), so a client that ignored the
    parts still ends with the exact buffered reply, and one that
    consumed them can check [parts @ tail = done.answers].  Merged
    queries, control operations and unparseable requests get a single
    [Done]. *)
type stream_frame =
  | Part of { id : int; seq : int; answer : answer }
  | Done of response

val frame_to_json : stream_frame -> Wp_json.Json.t
val frame_of_json : Wp_json.Json.t -> (stream_frame, string) result

val parse_frame : string -> (stream_frame, string) result
(** Parse one reply frame.  An object without a ["frame"] member is a
    protocol error. *)
