module Json = Wp_json.Json

type query = {
  id : int;
  query : string;
  doc : string option;
  k : int option;
  deadline_ms : float option;
  algo : string option;
  routing : string option;
  batch : int option;
  use_cache : bool option;
  bound_push : bool option;
}

type metrics_format = Json_format | Prometheus

let metrics_format_to_string = function
  | Json_format -> "json"
  | Prometheus -> "prometheus"

let metrics_format_of_string = function
  | "json" -> Some Json_format
  | "prometheus" -> Some Prometheus
  | _ -> None

type request =
  | Query of query
  | Metrics of { id : int; format : metrics_format }
  | Ping of { id : int }
  | Stop of { id : int }

type status = Ok | Partial | Overloaded | Error

let status_to_string = function
  | Ok -> "ok"
  | Partial -> "partial"
  | Overloaded -> "overloaded"
  | Error -> "error"

let status_of_string = function
  | "ok" -> Some Ok
  | "partial" -> Some Partial
  | "overloaded" -> Some Overloaded
  | "error" -> Some Error
  | _ -> None

(* Machine-readable failure classes — a closed variant with stable wire
   strings, so clients dispatch on [code] instead of parsing the
   human-oriented [error] message (which remains free to change). *)
type error_code =
  | Code_overloaded
  | Bad_request
  | Lint_rejected
  | Deadline_expired
  | Internal

let error_code_to_string = function
  | Code_overloaded -> "overloaded"
  | Bad_request -> "bad_request"
  | Lint_rejected -> "lint_rejected"
  | Deadline_expired -> "deadline_expired"
  | Internal -> "internal"

let error_code_of_string = function
  | "overloaded" -> Some Code_overloaded
  | "bad_request" -> Some Bad_request
  | "lint_rejected" -> Some Lint_rejected
  | "deadline_expired" -> Some Deadline_expired
  | "internal" -> Some Internal
  | _ -> None

let all_error_codes =
  [ Code_overloaded; Bad_request; Lint_rejected; Deadline_expired; Internal ]

type answer = {
  doc : string;
  root : int;
  dewey : string;
  score : float;
  progress : int;
}

type response = {
  id : int;
  status : status;
  error : string option;
  code : error_code option;
  answers : answer list;
  stats : Json.t option;
  metrics : Json.t option;
  metrics_text : string option;
  elapsed_ms : float;
}

let ok_response ?(answers = []) ?stats ?metrics ?metrics_text ?(partial = false)
    ~id ~elapsed_ms () =
  {
    id;
    status = (if partial then Partial else Ok);
    error = None;
    code = (if partial then Some Deadline_expired else None);
    answers;
    stats;
    metrics;
    metrics_text;
    elapsed_ms;
  }

let error_response ~id ?(elapsed_ms = 0.0) ~code msg =
  {
    id;
    status = Error;
    error = Some msg;
    code = Some code;
    answers = [];
    stats = None;
    metrics = None;
    metrics_text = None;
    elapsed_ms;
  }

let overloaded_response ~id =
  {
    id;
    status = Overloaded;
    error = None;
    code = Some Code_overloaded;
    answers = [];
    stats = None;
    metrics = None;
    metrics_text = None;
    elapsed_ms = 0.0;
  }

(* --- field accessors with typed errors --- *)

let field_int name json =
  match Json.member name json with
  | Some (Json.Int i) -> Result.Ok i
  | Some _ -> Result.Error (Printf.sprintf "field %S must be an integer" name)
  | None -> Result.Error (Printf.sprintf "missing field %S" name)

let field_string name json =
  match Json.member name json with
  | Some (Json.String s) -> Result.Ok s
  | Some _ -> Result.Error (Printf.sprintf "field %S must be a string" name)
  | None -> Result.Error (Printf.sprintf "missing field %S" name)

let opt_string name json =
  match Json.member name json with
  | Some (Json.String s) -> Result.Ok (Some s)
  | Some Json.Null | None -> Result.Ok None
  | Some _ ->
      Result.Error (Printf.sprintf "field %S must be a string or null" name)

let opt_int name json =
  match Json.member name json with
  | Some (Json.Int i) -> Result.Ok (Some i)
  | Some Json.Null | None -> Result.Ok None
  | Some _ ->
      Result.Error (Printf.sprintf "field %S must be an integer or null" name)

let opt_bool name json =
  match Json.member name json with
  | Some (Json.Bool b) -> Result.Ok (Some b)
  | Some Json.Null | None -> Result.Ok None
  | Some _ ->
      Result.Error (Printf.sprintf "field %S must be a boolean or null" name)

let opt_float name json =
  match Json.member name json with
  | Some (Json.Float f) -> Result.Ok (Some f)
  | Some (Json.Int i) -> Result.Ok (Some (float_of_int i))
  | Some Json.Null | None -> Result.Ok None
  | Some _ ->
      Result.Error (Printf.sprintf "field %S must be a number or null" name)

let ( let* ) = Result.bind

(* --- requests --- *)

let request_to_json req =
  let open Json in
  let opt name v f = match v with None -> [] | Some x -> [ (name, f x) ] in
  match req with
  | Query q ->
      Obj
        ([ ("op", String "query"); ("id", Int q.id); ("query", String q.query) ]
        @ opt "doc" q.doc (fun s -> String s)
        @ opt "k" q.k (fun k -> Int k)
        @ opt "deadline_ms" q.deadline_ms (fun d -> Float d)
        @ opt "algo" q.algo (fun s -> String s)
        @ opt "routing" q.routing (fun s -> String s)
        @ opt "batch" q.batch (fun b -> Int b)
        @ opt "use_cache" q.use_cache (fun b -> Bool b)
        @ opt "bound_push" q.bound_push (fun b -> Bool b))
  | Metrics { id; format } ->
      Obj
        ([ ("op", String "metrics"); ("id", Int id) ]
        @
        match format with
        | Json_format -> []
        | f -> [ ("format", String (metrics_format_to_string f)) ])
  | Ping { id } -> Obj [ ("op", String "ping"); ("id", Int id) ]
  | Stop { id } -> Obj [ ("op", String "stop"); ("id", Int id) ]

let request_of_json json =
  let* op = field_string "op" json in
  let* id = field_int "id" json in
  match op with
  | "query" ->
      let* query = field_string "query" json in
      let* doc = opt_string "doc" json in
      let* k = opt_int "k" json in
      let* deadline_ms = opt_float "deadline_ms" json in
      let* algo = opt_string "algo" json in
      let* routing = opt_string "routing" json in
      let* batch = opt_int "batch" json in
      let* use_cache = opt_bool "use_cache" json in
      let* bound_push = opt_bool "bound_push" json in
      Result.Ok
        (Query
           {
             id;
             query;
             doc;
             k;
             deadline_ms;
             algo;
             routing;
             batch;
             use_cache;
             bound_push;
           })
  | "metrics" ->
      let* fmt = opt_string "format" json in
      let* format =
        match fmt with
        | None -> Result.Ok Json_format
        | Some s -> (
            match metrics_format_of_string s with
            | Some f -> Result.Ok f
            | None ->
                Result.Error
                  (Printf.sprintf
                     "unknown metrics format %S (known: json, prometheus)" s))
      in
      Result.Ok (Metrics { id; format })
  | "ping" -> Result.Ok (Ping { id })
  | "stop" -> Result.Ok (Stop { id })
  | other -> Result.Error (Printf.sprintf "unknown op %S" other)

(* --- responses --- *)

let answer_to_json (a : answer) =
  let open Json in
  Obj
    [
      ("doc", String a.doc);
      ("root", Int a.root);
      ("dewey", String a.dewey);
      ("score", Float a.score);
      ("progress", Int a.progress);
    ]

let answer_of_json json =
  let* doc = field_string "doc" json in
  let* root = field_int "root" json in
  let* dewey = field_string "dewey" json in
  let* score =
    match Json.member "score" json with
    | Some (Json.Float f) -> Result.Ok f
    | Some (Json.Int i) -> Result.Ok (float_of_int i)
    | _ -> Result.Error "field \"score\" must be a number"
  in
  let* progress = field_int "progress" json in
  Result.Ok { doc; root; dewey; score; progress }

let response_to_json r =
  let open Json in
  let opt name v f = match v with None -> [] | Some x -> [ (name, f x) ] in
  Obj
    ([
       ("id", Int r.id);
       ("status", String (status_to_string r.status));
       ("elapsed_ms", Float r.elapsed_ms);
     ]
    @ opt "error" r.error (fun s -> String s)
    @ opt "code" r.code (fun c -> String (error_code_to_string c))
    @ (match r.answers with
      | [] -> []
      | answers -> [ ("answers", List (List.map answer_to_json answers)) ])
    @ opt "stats" r.stats Fun.id
    @ opt "metrics" r.metrics Fun.id
    @ opt "metrics_text" r.metrics_text (fun s -> String s))

let response_of_json json =
  let* id = field_int "id" json in
  let* status_s = field_string "status" json in
  let* status =
    match status_of_string status_s with
    | Some s -> Result.Ok s
    | None -> Result.Error (Printf.sprintf "unknown status %S" status_s)
  in
  let* elapsed_ms =
    let* v = opt_float "elapsed_ms" json in
    Result.Ok (Option.value v ~default:0.0)
  in
  let* error = opt_string "error" json in
  let* code =
    let* c = opt_string "code" json in
    match c with
    | None -> Result.Ok None
    | Some s -> (
        match error_code_of_string s with
        | Some c -> Result.Ok (Some c)
        | None -> Result.Error (Printf.sprintf "unknown error code %S" s))
  in
  let* answers =
    match Json.member "answers" json with
    | Some (Json.List items) ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* a = answer_of_json item in
            Result.Ok (a :: acc))
          (Result.Ok []) items
        |> Result.map List.rev
    | Some _ -> Result.Error "field \"answers\" must be a list"
    | None -> Result.Ok []
  in
  let stats = Json.member "stats" json in
  let metrics = Json.member "metrics" json in
  let* metrics_text = opt_string "metrics_text" json in
  Result.Ok
    { id; status; error; code; answers; stats; metrics; metrics_text;
      elapsed_ms }

let parse_request s =
  let* json = Json.of_string s in
  request_of_json json

let parse_response s =
  let* json = Json.of_string s in
  response_of_json json

(* --- reply frames --- *)

type stream_frame =
  | Part of { id : int; seq : int; answer : answer }
  | Done of response

let frame_to_json = function
  | Part { id; seq; answer } ->
      Json.Obj
        [
          ("id", Json.Int id);
          ("frame", Json.String "part");
          ("seq", Json.Int seq);
          ("answer", answer_to_json answer);
        ]
  | Done r -> (
      match response_to_json r with
      | Json.Obj fields ->
          Json.Obj (fields @ [ ("frame", Json.String "done") ])
      | other -> other)

let frame_of_json json =
  match Json.member "frame" json with
  | Some (Json.String "part") ->
      let* id = field_int "id" json in
      let* seq = field_int "seq" json in
      let* answer =
        match Json.member "answer" json with
        | Some a -> answer_of_json a
        | None -> Result.Error "missing field \"answer\""
      in
      Result.Ok (Part { id; seq; answer })
  | Some (Json.String "done") ->
      let* r = response_of_json json in
      Result.Ok (Done r)
  | Some (Json.String other) ->
      Result.Error (Printf.sprintf "unknown frame kind %S" other)
  | Some _ -> Result.Error "field \"frame\" must be a string"
  | None -> Result.Error "missing field \"frame\""

let parse_frame s =
  let* json = Json.of_string s in
  frame_of_json json
