(* The Whirlpool Sentinel: typedtree-level static checks over the
   repo's own compiled units.

   All rules report [Wp_analysis.Diagnostic] errors with codes
   [sentinel/<rule>] and messages prefixed [file.ml:LINE:]:

   - [lock-rank]: lock acquisitions are resolved to the declared
     hierarchy ({!Wp_serve.Pool.lock_rank}, which delegates to
     {!Whirlpool.Race.lock_rank}); taking a lock of equal or lower
     rank while one is held is flagged.
   - [blocking-under-lock]: [Unix.read]/[write]/[select]/[sleepf]/
     [connect]/[accept]/[recv] references inside a held section.
   - [clock]: any reference to [Unix.gettimeofday] or [Sys.time];
     time must come from the monotonic [Clock] modules.
   - [hot-alloc]: functions tagged [[@@wp.hot]] must not reference a
     known allocator.
   - [lock-leak]: a lock acquisition whose release is not guarded by
     [Fun.protect ~finally] — an exception in the section would leave
     the mutex held.  A function whose entire body is the acquisition
     (a lock callback such as [fun () -> Mutex.lock m]) is exempt:
     the discipline applies at its call sites.
   - [wire-total]: a closed nullary variant with a [_to_string] /
     [_of_string] pair (or [to_string]/[of_string] for a type [t])
     must round-trip every constructor through distinct wire strings.
   - [cancel-total]: suspect loops on a path reachable from
     [Wp_serve.Service] request handling must consult the
     cooperative-stop signal or be statically bounded.

   A section's footprint is what is written inside it plus what its
   calls reach: through the call-graph summaries ({!Summary}) the
   lock-rank, blocking and hot-alloc rules chase calls — a callee that
   transitively blocks, allocates or acquires a lower-ranked lock is
   flagged at the call site with a witness chain.

   Findings are suppressed by [[@wp.allow "rule justification"]] on an
   enclosing expression or binding; the justification is mandatory and
   its absence is itself a finding ([sentinel/allow]). *)

open Typedtree
module D = Wp_analysis.Diagnostic

let rule_lock_rank = "lock-rank"
let rule_blocking = "blocking-under-lock"
let rule_clock = "clock"
let rule_hot_alloc = "hot-alloc"
let rule_lock_leak = "lock-leak"
let rule_wire_total = "wire-total"
let rule_cancel = "cancel-total"

let all_rules =
  [
    rule_lock_rank;
    rule_blocking;
    rule_clock;
    rule_hot_alloc;
    rule_lock_leak;
    rule_wire_total;
    rule_cancel;
  ]

(* --- rule tables --- *)

let clock_banned = [ "Unix.gettimeofday"; "Sys.time" ]

let blocking_calls =
  [
    "Unix.read";
    "Unix.write";
    "Unix.select";
    "Unix.sleepf";
    "Unix.connect";
    "Unix.accept";
    "Unix.recv";
  ]

(* Idents and record fields whose presence in a loop counts as
   consulting the cooperative-stop signal. *)
let stop_names =
  [ "should_stop"; "stopped"; "stop"; "stopping"; "check_deadline" ]

(* Direct allocators forbidden under [@@wp.hot].  A deliberate
   approximation: record/tuple construction and interprocedural
   allocation are out of scope; the list names the Stdlib entry points
   that show up in profiles. *)
let allocators =
  [
    "Array.copy";
    "Array.append";
    "Array.make";
    "List.append";
    "@";
    "List.concat";
    "List.map";
    "List.mapi";
    "String.concat";
    "String.cat";
    "^";
    "Printf.sprintf";
    "Format.sprintf";
    "Format.asprintf";
  ]

let lock_rank = Wp_serve.Pool.lock_rank

(* --- small helpers --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- per-unit traversal state --- *)

type ctx = {
  source : string;
  unit_name : string;
  db : Summary.db;  (* call-graph summaries *)
  mutable scope : string list;  (* enclosing module path, outermost first *)
  mutable diags : D.t list;
  mutable allowed : string list;  (* rules suppressed in current scope *)
  mutable held : (string * int option) list;  (* innermost first *)
  mutable hot : bool;
  mutable exempt : expression list;  (* lock apps that ARE function bodies *)
}

let report ctx ~loc rule msg =
  if not (List.mem rule ctx.allowed) then
    ctx.diags <-
      D.errorf ("sentinel/" ^ rule) "%s:%d: %s" ctx.source (Summary.line loc) msg
      :: ctx.diags

let with_allows ctx (attrs : Parsetree.attributes) f =
  match Summary.allows_of attrs with
  | [] -> f ()
  | allows ->
      List.iter
        (fun a ->
          if not a.Summary.justified then
            ctx.diags <-
              D.errorf "sentinel/allow"
                "%s:%d: [@wp.allow] needs a justification after the rule name"
                ctx.source (Summary.line a.aloc)
              :: ctx.diags)
        allows;
      let saved = ctx.allowed in
      ctx.allowed <- List.map (fun a -> a.Summary.rule) allows @ saved;
      Fun.protect ~finally:(fun () -> ctx.allowed <- saved) f

(* --- lock identity --- *)

(* Map the rendered receiver text of an acquisition to the runtime
   mutex name the declared hierarchy ranks.  Text heuristics first
   (they also resolve fixture code), then a per-unit table for the
   receivers whose spelling is unit-specific.  Unresolvable locks stay
   unranked: they still open a section (for the blocking and leak
   rules) but never participate in rank comparisons. *)
let lock_name ~unit_name text =
  if contains text "topk" then Some "topk.mutex"
  else if contains text "queue" then Some "queue.*.mutex"
  else if contains text "pool" then Some "serve.pool.mutex"
  else
    match (unit_name, text) with
    | "Wp_serve__Pool", "t.mutex" -> Some "serve.pool.mutex"
    | "Whirlpool__Engine_mt", "t.mutex" -> Some "queue.*.mutex"
    | "Wp_obs__Obs", "st.mutex" -> Some Wp_obs.Obs.mutex_name
    | "Wp_obs__Registry", "t.mutex" -> Some Wp_obs.Registry.mutex_name
    | "Wp_score__Component_table", "t.mutex" ->
        Some Wp_score.Component_table.mutex_name
    | _ -> None

(* [with_lock]-style helpers open a section around their last argument;
   the mutex they stand for is unit-specific. *)
let helper_lock ~unit_name name =
  match name with
  | "with_topk" -> Some "topk.mutex"
  | "with_state" -> None
  | "with_lock" -> (
      match unit_name with
      | "Whirlpool__Engine_mt" -> Some "queue.*.mutex"
      | "Wp_serve__Pool" -> Some "serve.pool.mutex"
      | "Wp_obs__Obs" -> Some Wp_obs.Obs.mutex_name
      | "Wp_obs__Registry" -> Some Wp_obs.Registry.mutex_name
      | "Wp_score__Component_table" -> Some Wp_score.Component_table.mutex_name
      | _ -> None)
  | _ -> None

let is_section_helper name =
  name = "with_lock" || name = "with_state" || name = "with_topk"

(* --- shape recognizers --- *)

let rec expr_contains pred (e : expression) =
  pred e
  ||
  match e.exp_desc with
  | Texp_apply (h, args) ->
      expr_contains pred h
      || List.exists
           (function _, Some a -> expr_contains pred a | _, None -> false)
           args
  | Texp_sequence (a, b) -> expr_contains pred a || expr_contains pred b
  | Texp_function { cases; _ } ->
      List.exists (fun c -> expr_contains pred c.c_rhs) cases
  | Texp_let (_, vbs, b) ->
      List.exists (fun vb -> expr_contains pred vb.vb_expr) vbs
      || expr_contains pred b
  | Texp_ifthenelse (c, t, f) ->
      expr_contains pred c || expr_contains pred t
      || (match f with Some f -> expr_contains pred f | None -> false)
  | _ -> false

let contains_unlock e =
  expr_contains
    (fun e ->
      match e.exp_desc with
      | Texp_apply (head, _) -> (
          match head.exp_desc with
          | Texp_ident (p, _, _) -> Path.last p = "unlock"
          | Texp_field (_, _, lbl) -> lbl.Types.lbl_name = "unlock"
          | _ -> false)
      | _ -> false)
    e

(* [Fun.protect ~finally:F BODY] — returns (finally, body). *)
let protect_parts (e : expression) =
  match e.exp_desc with
  | Texp_apply (head, args) -> (
      match head.exp_desc with
      | Texp_ident (p, _, _) when Summary.norm_path p = "Fun.protect" ->
          let finally =
            List.find_map
              (function
                | Asttypes.Labelled "finally", Some f -> Some f | _ -> None)
              args
          in
          let body =
            List.fold_left
              (fun acc -> function
                | Asttypes.Nolabel, Some b -> Some b | _ -> acc)
              None args
          in
          Some (finally, body)
      | _ -> None)
  | _ -> None

(* --- rules 1-4: the expression walker --- *)

let check_acquire ctx ~loc name_opt text =
  let display = match name_opt with Some n -> n | None -> text in
  (match Option.map lock_rank name_opt with
  | Some (Some r) ->
      List.iter
        (fun (held_name, held_rank) ->
          match held_rank with
          | Some hr when r <= hr ->
              report ctx ~loc rule_lock_rank
                (Printf.sprintf
                   "acquires %s (rank %d) while holding %s (rank %d); locks \
                    must be taken in increasing rank order"
                   display r held_name hr)
          | _ -> ())
        ctx.held
  | _ -> ());
  (display, Option.join (Option.map lock_rank name_opt))

let with_held ctx entry f =
  let saved = ctx.held in
  ctx.held <- entry :: saved;
  Fun.protect ~finally:(fun () -> ctx.held <- saved) f

let scan_expressions ctx (str : structure) =
  let default = Tast_iterator.default_iterator in
  let visit it (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) ->
        let n = Summary.norm_path p in
        if List.mem n clock_banned then
          report ctx ~loc:e.exp_loc rule_clock
            (n ^ " is forbidden; use the monotonic Clock module")
        else begin
          if ctx.hot && List.mem n allocators then
            report ctx ~loc:e.exp_loc rule_hot_alloc
              (Printf.sprintf "%s allocates inside a [@@wp.hot] function" n);
          if ctx.held <> [] && List.mem n blocking_calls then
            report ctx ~loc:e.exp_loc rule_blocking
              (Printf.sprintf "blocking call %s while holding %s" n
                 (fst (List.hd ctx.held)));
          (* Interprocedural: the same three context rules through the
             callee's transitive summary. *)
          if ctx.hot || ctx.held <> [] then
            match
              Summary.resolve ctx.db ~unit_name:ctx.unit_name ~scope:ctx.scope
                n
            with
            | None -> ()
            | Some g ->
                if ctx.hot && not (List.mem n allocators) then
                  Option.iter
                    (fun w ->
                      report ctx ~loc:e.exp_loc rule_hot_alloc
                        (Printf.sprintf
                           "call %s may allocate inside a [@@wp.hot] \
                            function (%s)"
                           n w))
                    g.Summary.t_allocs;
                if ctx.held <> [] then begin
                  if not (List.mem n blocking_calls) then
                    Option.iter
                      (fun w ->
                        report ctx ~loc:e.exp_loc rule_blocking
                          (Printf.sprintf
                             "call %s may block while holding %s (%s)" n
                             (fst (List.hd ctx.held))
                             w))
                      g.Summary.t_blocks;
                  List.iter
                    (fun (lname, rank) ->
                      match rank with
                      | None -> ()
                      | Some r ->
                          List.iter
                            (fun (held_name, held_rank) ->
                              match held_rank with
                              | Some hr when r <= hr ->
                                  report ctx ~loc:e.exp_loc rule_lock_rank
                                    (Printf.sprintf
                                       "call %s acquires %s (rank %d) \
                                        while %s (rank %d) is held; locks \
                                        must be taken in increasing rank \
                                        order"
                                       n lname r held_name hr)
                              | _ -> ())
                            ctx.held)
                    g.Summary.t_acquires
                end
        end
    | Texp_function { cases; _ } ->
        (* A function whose whole body is a lock (or unlock) call is a
           lock combinator, not a critical section. *)
        List.iter
          (fun c ->
            match Summary.lock_target c.c_rhs with
            | Some _ -> ctx.exempt <- c.c_rhs :: ctx.exempt
            | None -> ())
          cases;
        default.expr it e
    | Texp_sequence (e1, e2) when Summary.lock_target e1 <> None ->
        let text = Option.value (Summary.lock_target e1) ~default:"?" in
        let name = lock_name ~unit_name:ctx.unit_name text in
        let entry = check_acquire ctx ~loc:e1.exp_loc name text in
        default.expr it e1;
        (match protect_parts e2 with
        | Some (finally, body) ->
            (match finally with
            | Some f when contains_unlock f -> Option.iter (it.expr it) finally
            | _ ->
                report ctx ~loc:e1.exp_loc rule_lock_leak
                  (Printf.sprintf
                     "%s is locked but Fun.protect's ~finally does not \
                      release it"
                     (fst entry));
                Option.iter (it.expr it) finally);
            with_held ctx entry (fun () ->
                match body with Some b -> it.expr it b | None -> ())
        | None ->
            report ctx ~loc:e1.exp_loc rule_lock_leak
              (Printf.sprintf
                 "%s is locked without Fun.protect guarding its release; an \
                  exception would leave it held"
                 (fst entry));
            with_held ctx entry (fun () -> it.expr it e2))
    | Texp_apply (head, args) -> (
        let helper =
          match head.exp_desc with
          | Texp_ident (p, _, _) when is_section_helper (Path.last p) ->
              Some (Path.last p)
          | _ -> None
        in
        match helper with
        | Some h ->
            let name = helper_lock ~unit_name:ctx.unit_name h in
            let entry = check_acquire ctx ~loc:e.exp_loc name h in
            let body =
              List.fold_left
                (fun acc -> function
                  | Asttypes.Nolabel, Some b -> Some b | _ -> acc)
                None args
            in
            let is_body a =
              match body with Some b -> b == a | None -> false
            in
            default.expr it head;
            List.iter
              (function
                | _, Some a when not (is_body a) -> it.expr it a | _ -> ())
              args;
            with_held ctx entry (fun () ->
                match body with Some b -> it.expr it b | None -> ())
        | None ->
            if Summary.lock_target e <> None then begin
              let text = Option.value (Summary.lock_target e) ~default:"?" in
              let name = lock_name ~unit_name:ctx.unit_name text in
              let entry = check_acquire ctx ~loc:e.exp_loc name text in
              if not (List.memq e ctx.exempt) then
                report ctx ~loc:e.exp_loc rule_lock_leak
                  (Printf.sprintf
                     "%s is locked without Fun.protect guarding its release; \
                      an exception would leave it held"
                     (fst entry))
            end;
            default.expr it e)
    | _ -> default.expr it e
  in
  let it =
    {
      default with
      Tast_iterator.expr =
        (fun it e -> with_allows ctx e.exp_attributes (fun () -> visit it e));
      value_binding =
        (fun it vb ->
          with_allows ctx vb.vb_attributes (fun () ->
              let saved = ctx.hot in
              if Summary.has_attr "wp.hot" vb.vb_attributes then ctx.hot <- true;
              Fun.protect
                ~finally:(fun () -> ctx.hot <- saved)
                (fun () -> default.value_binding it vb)));
      module_binding =
        (fun it mb ->
          let saved = ctx.scope in
          Option.iter (fun id -> ctx.scope <- saved @ [ Ident.name id ]) mb.mb_id;
          default.module_binding it mb;
          ctx.scope <- saved);
    }
  in
  it.structure it str

(* --- rule 5: wire-string totality --- *)

let cases_of (e : expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } -> Some cases
  | _ -> None

(* C -> "s" maps; wildcards are legal but noted (they can hide a
   constructor from the exhaustiveness check the compiler would
   otherwise give us). *)
let to_string_map cases =
  List.fold_left
    (fun acc (c : value case) ->
      match acc with
      | None -> None
      | Some (assoc, wild) -> (
          if c.c_guard <> None then None
          else
            match (c.c_lhs.pat_desc, c.c_rhs.exp_desc) with
            | (Tpat_any | Tpat_var _), _ -> Some (assoc, true)
            | ( Tpat_construct (_, cd, [], _),
                Texp_constant (Asttypes.Const_string (s, _, _)) ) ->
                Some ((cd.Types.cstr_name, s) :: assoc, wild)
            | _ -> None))
    (Some ([], false))
    cases

let rec first_constructor (e : expression) =
  match e.exp_desc with
  | Texp_construct (_, cd, args) ->
      let n = cd.Types.cstr_name in
      if n = "Some" then
        match args with [ a ] -> first_constructor a | _ -> None
      else if n = "None" then None
      else Some n
  | _ -> None

let of_string_map cases =
  List.fold_left
    (fun acc (c : value case) ->
      match acc with
      | None -> None
      | Some assoc -> (
          if c.c_guard <> None then None
          else
            match c.c_lhs.pat_desc with
            | Tpat_any | Tpat_var _ -> Some assoc
            | Tpat_constant (Asttypes.Const_string (s, _, _)) -> (
                match first_constructor c.c_rhs with
                | Some ctor -> Some ((s, ctor) :: assoc)
                | None -> Some assoc)
            | _ -> None))
    (Some []) cases

let base_of name suffix =
  if name = suffix then Some "t"
  else if String.ends_with ~suffix:("_" ^ suffix) name then
    Some (String.sub name 0 (String.length name - String.length suffix - 1))
  else None

let nullary_variant (decl : type_declaration) =
  match decl.typ_kind with
  | Ttype_variant cds
    when cds <> []
         && List.for_all
              (fun cd -> match cd.cd_args with Cstr_tuple [] -> true | _ -> false)
              cds ->
      Some (List.map (fun cd -> cd.cd_name.txt) cds)
  | _ -> None

let rec check_rule5 ctx (str : structure) =
  let variants = ref [] in
  let tos = ref [] in
  let ofs = ref [] in
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_type (_, decls) ->
          List.iter
            (fun decl ->
              match nullary_variant decl with
              | Some ctors -> variants := (decl.typ_name.txt, ctors) :: !variants
              | None -> ())
            decls
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (_, name) -> (
                  let allowed =
                    List.exists
                      (fun a -> a.Summary.rule = rule_wire_total)
                      (Summary.allows_of vb.vb_attributes)
                  in
                  match base_of name.txt "to_string" with
                  | Some base -> (
                      match Option.bind (cases_of vb.vb_expr) to_string_map with
                      | Some (assoc, wild) when assoc <> [] ->
                          tos :=
                            (base, assoc, wild, vb.vb_loc, allowed) :: !tos
                      | _ -> ())
                  | None -> (
                      match base_of name.txt "of_string" with
                      | Some base -> (
                          match
                            Option.bind (cases_of vb.vb_expr) of_string_map
                          with
                          | Some assoc -> ofs := (base, assoc) :: !ofs
                          | None -> ())
                      | None -> ()))
              | _ -> ())
            vbs
      | Tstr_module mb -> check_module ctx mb.mb_expr
      | Tstr_recmodule mbs ->
          List.iter (fun mb -> check_module ctx mb.mb_expr) mbs
      | _ -> ())
    str.str_items;
  List.iter
    (fun (base, to_assoc, wild, loc, allowed) ->
      if not allowed then
        match List.assoc_opt base !ofs with
        | None -> ()
        | Some of_assoc -> (
            let ctors_mapped = List.map fst to_assoc in
            (* the variant this pair serializes: the one declaring every
               mapped constructor *)
            match
              List.find_opt
                (fun (_, ctors) ->
                  List.for_all (fun c -> List.mem c ctors) ctors_mapped)
                !variants
            with
            | None -> ()
            | Some (tname, ctors) ->
                let fname =
                  if base = "t" then "to_string" else base ^ "_to_string"
                in
                let ofname =
                  if base = "t" then "of_string" else base ^ "_of_string"
                in
                if wild then
                  List.iter
                    (fun c ->
                      if not (List.mem c ctors_mapped) then
                        report ctx ~loc rule_wire_total
                          (Printf.sprintf
                             "%s does not map constructor %s of type %s" fname
                             c tname))
                    ctors;
                List.iter
                  (fun (c, s) ->
                    (match
                       List.filter (fun (_, s') -> s' = s) to_assoc
                     with
                    | _ :: _ :: _ ->
                        report ctx ~loc rule_wire_total
                          (Printf.sprintf
                             "%s maps more than one constructor of %s to %S"
                             fname tname s)
                    | _ -> ());
                    match List.assoc_opt s of_assoc with
                    | Some c' when c' = c -> ()
                    | Some c' ->
                        report ctx ~loc rule_wire_total
                          (Printf.sprintf
                             "%s maps %S to %s, so %s does not round-trip"
                             ofname s c' c)
                    | None ->
                        report ctx ~loc rule_wire_total
                          (Printf.sprintf
                             "constructor %s of %s does not round-trip: %s \
                              returns %S but %s does not accept it"
                             c tname fname s ofname))
                  to_assoc))
    !tos

and check_module ctx (me : module_expr) =
  match me.mod_desc with
  | Tmod_structure s -> check_rule5 ctx s
  | Tmod_constraint (me, _, _, _) -> check_module ctx me
  | Tmod_functor (_, body) -> check_module ctx body
  | _ -> ()

(* --- deterministic finding order --- *)

(* Sentinel messages are ["path.ml:LINE: ..."]; order findings by
   (file, line, rule, message) so `wp_cli check --json` output is
   byte-stable across runs and environments.  [Diagnostic.compare]
   alone orders by severity/node/code and leaves same-code findings in
   traversal order. *)
let finding_pos (d : D.t) =
  match String.index_opt d.message ':' with
  | None -> (d.message, 0)
  | Some i -> (
      let file = String.sub d.message 0 i in
      let rest = String.sub d.message (i + 1) (String.length d.message - i - 1) in
      match String.index_opt rest ':' with
      | None -> (file, 0)
      | Some j -> (
          match int_of_string_opt (String.sub rest 0 j) with
          | Some l -> (file, l)
          | None -> (file, 0)))

let compare_findings (a : D.t) (b : D.t) =
  let fa, la = finding_pos a and fb, lb = finding_pos b in
  match String.compare fa fb with
  | 0 -> (
      match Int.compare la lb with
      | 0 -> (
          match String.compare a.D.code b.D.code with
          | 0 -> String.compare a.D.message b.D.message
          | c -> c)
      | c -> c)
  | c -> c

let sort_findings ds = List.sort compare_findings ds

(* --- the cancellation-totality rule --- *)

(* Every suspect loop reachable from Wp_serve.Service request handling
   (or from a [[@@wp.serve_entry]]-tagged root) must consult the
   cooperative-stop signal — directly, through a called summary, or
   anywhere in its enclosing function — or be statically bounded
   ([for], or [[@wp.bounded "why"]]). *)
let service_unit = "Wp_serve__Service"

let totality_findings (db : Summary.db) =
  let reachable =
    Summary.reachable_from_roots db ~is_root:(fun f ->
        f.Summary.f_serve_entry || f.Summary.f_unit = service_unit)
  in
  let diags = ref [] in
  Summary.iter_fns db (fun f ->
      if Hashtbl.mem reachable (f.Summary.f_unit, f.Summary.f_path) then
        List.iter
          (fun (l : Summary.loop) ->
            let consults_via_call =
              List.exists
                (fun r ->
                  match Summary.resolve_ref db f r with
                  | Some g -> g.Summary.t_consults
                  | None -> false)
                l.Summary.l_refs
            in
            let ok =
              l.Summary.l_bounded || l.Summary.l_consults
              || f.Summary.f_consults || consults_via_call
              || List.mem rule_cancel l.Summary.l_allowed
            in
            if not ok then
              let what =
                match l.Summary.l_kind with
                | Summary.While_loop -> "while loop"
                | Summary.Self_recursion n ->
                    Printf.sprintf "self-recursion %s (arguments unchanged)" n
              in
              diags :=
                D.errorf ("sentinel/" ^ rule_cancel)
                  "%s:%d: %s in %s is on a serve path but neither consults \
                   should_stop nor is statically bounded; a missed deadline \
                   could hang — annotate [@wp.bounded \"why\"] if termination \
                   is structural"
                  f.Summary.f_source l.Summary.l_line what f.Summary.f_path
                :: !diags)
          f.Summary.f_loops);
  List.iter
    (fun (n : Summary.naked_attr) ->
      diags :=
        D.errorf "sentinel/allow"
          "%s:%d: [@wp.bounded] needs a justification for why the loop is \
           bounded"
          n.Summary.n_source n.Summary.n_line
        :: !diags)
    db.Summary.naked_bounded;
  !diags

(* --- entry points --- *)

let summary_tables : Summary.tables =
  {
    Summary.blocking = blocking_calls;
    allocators;
    stop_names;
    lock_of_text = (fun ~unit_name text -> lock_name ~unit_name text);
    helper_lock = (fun ~unit_name name -> helper_lock ~unit_name name);
    is_helper = is_section_helper;
    rank_of = lock_rank;
  }

let check_unit_db db (u : Discover.unit_info) =
  let ctx =
    {
      source = u.Discover.source;
      unit_name = u.Discover.modname;
      db;
      scope = [];
      diags = [];
      allowed = [];
      held = [];
      hot = false;
      exempt = [];
    }
  in
  scan_expressions ctx u.Discover.structure;
  check_rule5 ctx u.Discover.structure;
  sort_findings (List.rev ctx.diags)

let check_unit (u : Discover.unit_info) =
  let db = Summary.build summary_tables [ u ] in
  sort_findings (check_unit_db db u @ totality_findings db)

type report = {
  units : int;
  diagnostics : D.t list;
  load_errors : string list;
}

let run ?dirs ~root () =
  let cmts = Discover.find_cmts ?dirs root in
  let units = ref [] and errors = ref [] in
  List.iter
    (fun path ->
      match Discover.load path with
      | Ok u -> units := u :: !units
      | Error e -> errors := e :: !errors)
    cmts;
  let units = List.rev !units in
  let db = Summary.build summary_tables units in
  let diags =
    List.concat_map (check_unit_db db) units @ totality_findings db
  in
  {
    units = List.length units;
    diagnostics = sort_findings diags;
    load_errors = List.rev !errors;
  }
