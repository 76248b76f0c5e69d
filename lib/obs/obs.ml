module Json = Wp_json.Json

let mutex_name = "obs.ctx.mutex"

type event =
  | Popped of { id : int; score : float; max_possible : float }
  | Routed of { id : int; server : int }
  | Extended of { parent : int; id : int; server : int; bound : bool }
  | Pruned of { id : int }
  | Died of { id : int; server : int }
  | Completed of { id : int; score : float }

let pp_event ppf = function
  | Popped { id; score; max_possible } ->
      Format.fprintf ppf "pop #%d score=%.4f max=%.4f" id score max_possible
  | Routed { id; server } -> Format.fprintf ppf "route #%d -> q%d" id server
  | Extended { parent; id; server; bound } ->
      Format.fprintf ppf "extend #%d -> #%d at q%d (%s)" parent id server
        (if bound then "bound" else "deleted")
  | Pruned { id } -> Format.fprintf ppf "prune #%d" id
  | Died { id; server } -> Format.fprintf ppf "die #%d at q%d" id server
  | Completed { id; score } ->
      Format.fprintf ppf "complete #%d score=%.4f" id score

type stamped = { ts_ns : int64; seq : int; event : event }

type span = {
  sid : int;
  parent : int option;
  name : string;
  start_ns : int64;
  mutable end_ns : int64;
  mutable rev_events : stamped list;
  mutable rev_attrs : (string * float) list;
}

type server_cost = {
  visits : int;
  comparisons : int;
  time_ns : int64;
}

type cost_acc = {
  mutable a_visits : int;
  mutable a_comparisons : int;
  mutable a_time_ns : int64;
}

type state = {
  mutex : Mutex.t;
  max_spans : int;
  mutable next_sid : int;
  mutable next_seq : int;
  mutable collected : int;
  mutable dropped : int;
  mutable rev_spans : span list;
  costs : (int, cost_acc) Hashtbl.t;
}

type t = Disabled | Enabled of state

let disabled = Disabled
let enabled = function Disabled -> false | Enabled _ -> true

let create ?(max_spans = 4096) () =
  if max_spans < 1 then invalid_arg "Obs.create: max_spans >= 1";
  Enabled
    {
      mutex = Mutex.create ();
      max_spans;
      next_sid = 0;
      next_seq = 0;
      collected = 0;
      dropped = 0;
      rev_spans = [];
      costs = Hashtbl.create 8;
    }

let with_lock st f =
  Mutex.lock st.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mutex) f

let alloc_span st ~parent name =
  if st.collected >= st.max_spans then begin
    st.dropped <- st.dropped + 1;
    None
  end
  else begin
    let sid = st.next_sid in
    st.next_sid <- sid + 1;
    st.collected <- st.collected + 1;
    let now = Clock.now_ns () in
    let s =
      {
        sid;
        parent;
        name;
        start_ns = now;
        end_ns = now;
        rev_events = [];
        rev_attrs = [];
      }
    in
    st.rev_spans <- s :: st.rev_spans;
    Some s
  end

let root t name =
  match t with
  | Disabled -> None
  | Enabled st ->
      with_lock st (fun () -> alloc_span st ~parent:None name)

let child t ~parent name =
  match (t, parent) with
  | Disabled, _ | _, None -> None
  | Enabled st, Some (p : span) ->
      with_lock st (fun () -> alloc_span st ~parent:(Some p.sid) name)

(* Stamp and sequence under the one lock, so [seq] order is a total
   order of the context's events that agrees with [ts_ns]. *)
let emit t sp event =
  match (t, sp) with
  | Disabled, _ | _, None -> ()
  | Enabled st, Some s ->
      with_lock st (fun () ->
          st.next_seq <- st.next_seq + 1;
          s.rev_events <-
            { ts_ns = Clock.now_ns (); seq = st.next_seq; event }
            :: s.rev_events)

let attr t sp name v =
  match (t, sp) with
  | Disabled, _ | _, None -> ()
  | Enabled st, Some s ->
      with_lock st (fun () -> s.rev_attrs <- (name, v) :: s.rev_attrs)

let finish t sp =
  match (t, sp) with
  | Disabled, _ | _, None -> ()
  | Enabled st, Some s ->
      with_lock st (fun () ->
          if Int64.equal s.end_ns s.start_ns then s.end_ns <- Clock.now_ns ())

let visit t ~server ~comparisons ~ns =
  match t with
  | Disabled -> ()
  | Enabled st ->
      with_lock st (fun () ->
          let acc =
            match Hashtbl.find_opt st.costs server with
            | Some a -> a
            | None ->
                let a = { a_visits = 0; a_comparisons = 0; a_time_ns = 0L } in
                Hashtbl.add st.costs server a;
                a
          in
          acc.a_visits <- acc.a_visits + 1;
          acc.a_comparisons <- acc.a_comparisons + comparisons;
          acc.a_time_ns <- Int64.add acc.a_time_ns ns)

let per_server t =
  match t with
  | Disabled -> []
  | Enabled st ->
      let rows =
        with_lock st (fun () ->
            Hashtbl.fold
              (fun server (a : cost_acc) acc ->
                ( server,
                  {
                    visits = a.a_visits;
                    comparisons = a.a_comparisons;
                    time_ns = a.a_time_ns;
                  } )
                :: acc)
              st.costs [])
      in
      List.sort (fun (a, _) (b, _) -> Int.compare a b) rows

type span_record = {
  sid : int;
  parent : int option;
  name : string;
  start_ns : int64;
  end_ns : int64;
  events : stamped list;
  attrs : (string * float) list;
}

let spans t =
  match t with
  | Disabled -> []
  | Enabled st ->
      let raw = with_lock st (fun () -> List.rev st.rev_spans) in
      List.map
        (fun (s : span) ->
          {
            sid = s.sid;
            parent = s.parent;
            name = s.name;
            start_ns = s.start_ns;
            end_ns = s.end_ns;
            events = List.rev s.rev_events;
            attrs = List.rev s.rev_attrs;
          })
        raw

let events t =
  List.concat_map (fun (s : span_record) -> s.events) (spans t)
  |> List.sort (fun a b -> Int.compare a.seq b.seq)

let dropped_spans t =
  match t with
  | Disabled -> 0
  | Enabled st -> with_lock st (fun () -> st.dropped)

let span_tree_json t =
  let all = spans t in
  let children : (int, span_record list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match s.parent with
      | None -> ()
      | Some p ->
          Hashtbl.replace children p
            (s :: Option.value (Hashtbl.find_opt children p) ~default:[]))
    all;
  let rec node (s : span_record) =
    let kids =
      List.rev (Option.value (Hashtbl.find_opt children s.sid) ~default:[])
    in
    Json.Obj
      ([
         ("name", Json.String s.name);
         ("start_ns", Json.Float (Int64.to_float s.start_ns));
         ( "duration_ns",
           Json.Float (Int64.to_float (Int64.sub s.end_ns s.start_ns)) );
       ]
      @ (match s.attrs with
        | [] -> []
        | attrs ->
            [
              ( "attrs",
                Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) attrs) );
            ])
      @ (match s.events with
        | [] -> []
        | events ->
            [
              ( "events",
                Json.List
                  (List.map
                     (fun e ->
                       Json.Obj
                         [
                           ("ts_ns", Json.Float (Int64.to_float e.ts_ns));
                           ( "msg",
                             Json.String
                               (Format.asprintf "%a" pp_event e.event) );
                         ])
                     events) );
            ])
      @
      match kids with
      | [] -> []
      | _ -> [ ("children", Json.List (List.map node kids)) ])
  in
  let roots = List.filter (fun s -> s.parent = None) all in
  Json.Obj
    [
      ("spans", Json.Int (List.length all));
      ("dropped", Json.Int (dropped_spans t));
      ("roots", Json.List (List.map node roots));
    ]

let profile_json t =
  let rows = per_server t in
  Json.List
    (List.map
       (fun (server, c) ->
         Json.Obj
           [
             ("server", Json.Int server);
             ("visits", Json.Int c.visits);
             ("comparisons", Json.Int c.comparisons);
             ("time_ms", Json.Float (Int64.to_float c.time_ns /. 1e6));
           ])
       rows)
