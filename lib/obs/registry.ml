let mutex_name = "obs.registry.mutex"

type kind = Counter | Gauge | Histogram

type value =
  | Sample of float
  | Buckets of { buckets : (float * int) list; sum : float; count : int }

type sample = {
  name : string;
  help : string;
  kind : kind;
  labels : (string * string) list;
  value : value;
}

type counter = { mutable c : int }

type histogram = {
  bounds : float array;  (* strictly increasing, +inf excluded *)
  counts : int array;  (* per bound, plus one +inf slot at the end *)
  mutable sum : float;
  mutable count : int;
}

type metric =
  | M_counter of counter
  | M_histogram of histogram
  | M_pull_counter of (unit -> float)
  | M_pull_gauge of (unit -> float)

type entry = {
  e_name : string;
  e_help : string;
  e_labels : (string * string) list;
  e_metric : metric;
}

type t = {
  mutex : Mutex.t;
  mutable entries : entry list;  (* reverse registration order *)
}

let create () = { mutex = Mutex.create (); entries = [] }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let kind_of = function
  | M_counter _ | M_pull_counter _ -> Counter
  | M_pull_gauge _ -> Gauge
  | M_histogram _ -> Histogram

let valid_name name =
  name <> ""
  && (match name.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

(* Register [make ()] under (name, labels), or return the existing
   metric when one of the same kind is already there. *)
let register t ~help ~labels ~name ~same ~make =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Registry: illegal metric name %S" name);
  with_lock t (fun () ->
      match
        List.find_opt
          (fun e -> e.e_name = name && e.e_labels = labels)
          t.entries
      with
      | Some e -> (
          match same e.e_metric with
          | Some m -> m
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Registry: %s already registered with a different kind"
                   name))
      | None ->
          let m = make () in
          t.entries <-
            {
              e_name = name;
              e_help = help;
              e_labels = labels;
              e_metric =
                (match m with
                | `C c -> M_counter c
                | `H h -> M_histogram h
                | `PC f -> M_pull_counter f
                | `PG f -> M_pull_gauge f);
            }
            :: t.entries;
          m)

let counter t ?(help = "") ?(labels = []) name =
  match
    register t ~help ~labels ~name
      ~same:(function M_counter c -> Some (`C c) | _ -> None)
      ~make:(fun () -> `C { c = 0 })
  with
  | `C c -> c
  | _ -> assert false

let incr ?(by = 1) (c : counter) =
  if by < 0 then invalid_arg "Registry.incr: by >= 0";
  c.c <- c.c + by

let counter_value (c : counter) = c.c

let default_buckets =
  [ 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 500.0; 1000.0 ]

let histogram t ?(help = "") ?(labels = []) ?(buckets = default_buckets) name =
  let bounds = Array.of_list buckets in
  let ok = ref (Array.length bounds > 0) in
  Array.iteri
    (fun i b ->
      if not (Float.is_finite b) then ok := false
      else if i > 0 && b <= bounds.(i - 1) then ok := false)
    bounds;
  if not !ok then
    invalid_arg "Registry.histogram: buckets must be finite and increasing";
  match
    register t ~help ~labels ~name
      ~same:(function M_histogram h -> Some (`H h) | _ -> None)
      ~make:(fun () ->
        `H
          {
            bounds;
            counts = Array.make (Array.length bounds + 1) 0;
            sum = 0.0;
            count = 0;
          })
  with
  | `H h -> h
  | _ -> assert false

let observe (h : histogram) v =
  let n = Array.length h.bounds in
  let rec slot i = if i >= n then n else if v <= h.bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  h.count <- h.count + 1

let pull_counter t ?(help = "") ?(labels = []) name f =
  ignore
    (register t ~help ~labels ~name
       ~same:(fun _ -> None)
       ~make:(fun () -> `PC f))

let pull_gauge t ?(help = "") ?(labels = []) name f =
  ignore
    (register t ~help ~labels ~name
       ~same:(fun _ -> None)
       ~make:(fun () -> `PG f))

(* Snapshot: copy the entry list under the lock, then read values.  Pull
   callbacks run outside the lock so they may themselves take (lower or
   unrelated) locks; push metrics race benignly with concurrent updates
   (a torn int is impossible in OCaml, a slightly stale value is fine). *)
let snapshot t =
  let entries = with_lock t (fun () -> List.rev t.entries) in
  List.map
    (fun e ->
      let value =
        match e.e_metric with
        | M_counter c -> Sample (float_of_int c.c)
        | M_pull_counter f | M_pull_gauge f -> Sample (f ())
        | M_histogram h ->
            let acc = ref 0 in
            let buckets =
              Array.to_list
                (Array.mapi
                   (fun i n ->
                     acc := !acc + n;
                     let bound =
                       if i < Array.length h.bounds then h.bounds.(i)
                       else infinity
                     in
                     (bound, !acc))
                   h.counts)
            in
            Buckets { buckets; sum = h.sum; count = h.count }
      in
      {
        name = e.e_name;
        help = e.e_help;
        kind = kind_of e.e_metric;
        labels = e.e_labels;
        value;
      })
    entries

(* --- Prometheus text exposition --- *)

let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let format_value v =
  if Float.is_integer v && Float.abs v < 1e15 then
    string_of_int (int_of_float v)
  else Printf.sprintf "%.17g" v

let format_bound b = if b = infinity then "+Inf" else format_value b

let labels_string labels =
  match labels with
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             ls)
      ^ "}"

let kind_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let to_prometheus samples =
  let b = Buffer.create 1024 in
  let headed : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem headed s.name) then begin
        Hashtbl.add headed s.name ();
        if s.help <> "" then
          Buffer.add_string b
            (Printf.sprintf "# HELP %s %s\n" s.name
               (String.map (function '\n' -> ' ' | c -> c) s.help));
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s %s\n" s.name (kind_string s.kind))
      end;
      match s.value with
      | Sample v ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" s.name (labels_string s.labels)
               (format_value v))
      | Buckets { buckets; sum; count } ->
          List.iter
            (fun (bound, n) ->
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" s.name
                   (labels_string (s.labels @ [ ("le", format_bound bound) ]))
                   n))
            buckets;
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %s\n" s.name (labels_string s.labels)
               (format_value sum));
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" s.name (labels_string s.labels)
               count))
    samples;
  Buffer.contents b

(* --- exposition validation --- *)

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | _ -> false

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
  | _ -> false

let is_label_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

(* One sample line: name[{labels}] SP value.  Returns an error message
   or None. *)
let check_sample_line line =
  let n = String.length line in
  let err m = Some m in
  let rec name_end i =
    if i < n && is_name_char line.[i] then name_end (i + 1) else i
  in
  if n = 0 || not (is_name_start line.[0]) then err "illegal metric name"
  else begin
    let i = name_end 1 in
    (* optional label set *)
    let after_labels =
      if i < n && line.[i] = '{' then begin
        (* walk label pairs *)
        let rec pairs j =
          (* j at label name start *)
          if j >= n then Error "unterminated label set"
          else if line.[j] = '}' then Ok (j + 1)
          else if not (is_label_start line.[j]) then
            Error "illegal label name"
          else begin
            let rec lname k =
              if k < n && is_name_char line.[k] then lname (k + 1) else k
            in
            let j = lname (j + 1) in
            if j + 1 >= n || line.[j] <> '=' || line.[j + 1] <> '"' then
              Error "label value must be quoted"
            else begin
              let rec value k =
                if k >= n then Error "unterminated label value"
                else if line.[k] = '\\' then
                  if k + 1 < n then value (k + 2)
                  else Error "unterminated escape"
                else if line.[k] = '"' then Ok (k + 1)
                else value (k + 1)
              in
              match value (j + 2) with
              | Error m -> Error m
              | Ok k ->
                  if k < n && line.[k] = ',' then pairs (k + 1)
                  else if k < n && line.[k] = '}' then Ok (k + 1)
                  else Error "expected ',' or '}' after label value"
            end
          end
        in
        pairs (i + 1)
      end
      else Ok i
    in
    match after_labels with
    | Error m -> err m
    | Ok i ->
        if i >= n || line.[i] <> ' ' then
          err "expected a space before the sample value"
        else begin
          let v = String.sub line (i + 1) (n - i - 1) in
          match float_of_string_opt v with
          | None -> err (Printf.sprintf "unparsable sample value %S" v)
          | Some f ->
              if Float.is_finite f then None
              else err (Printf.sprintf "non-finite sample value %S" v)
        end
  end

let check_comment_line line =
  (* "# HELP name ..." | "# TYPE name counter|gauge|histogram" *)
  match String.split_on_char ' ' line with
  | "#" :: "HELP" :: name :: _ when valid_name name -> None
  | "#" :: "TYPE" :: name :: [ kind ] when valid_name name ->
      if List.mem kind [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ]
      then None
      else Some (Printf.sprintf "unknown metric type %S" kind)
  | "#" :: "HELP" :: _ -> Some "malformed HELP comment"
  | "#" :: "TYPE" :: _ -> Some "malformed TYPE comment"
  | _ -> Some "malformed comment"

let validate_exposition text =
  let lines = String.split_on_char '\n' text in
  let rec go n = function
    | [] -> Ok ()
    | line :: rest -> (
        let verdict =
          if line = "" then None
          else if line.[0] = '#' then check_comment_line line
          else check_sample_line line
        in
        match verdict with
        | None -> go (n + 1) rest
        | Some m -> Error (Printf.sprintf "line %d: %s: %s" n m line))
  in
  go 1 lines
