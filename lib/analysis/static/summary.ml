(* Interprocedural summaries over the repo's own typedtrees.

   One [fn] record per named top-level binding (module paths included:
   ["Min_heap.push"]), harvested in a single walk per unit:

   - the names it references (potential call edges, resolved lazily
     against the whole universe of loaded units),
   - the blocking syscalls / known allocators it touches directly,
   - the locks it acquires (resolved to the declared hierarchy through
     the closures the Sentinel passes in),
   - whether it consults a cooperative-stop signal ([should_stop] and
     friends), and
   - its suspect loops: [while] loops and self-recursions whose every
     self-call passes syntactically unchanged arguments (so nothing in
     the term obviously shrinks).  [for] loops are bounded by
     construction and never recorded.

   A fixpoint then saturates the transitive facts ([t_blocks],
   [t_allocs], [t_acquires], [t_consults]) along resolved references,
   carrying a human-readable witness chain for the first two.  The
   Sentinel's interprocedural rules and the cancellation-totality check
   are phrased entirely over these summaries.

   Scoped escapes mirror the Sentinel's: a [[@wp.allow "rule why"]] at
   the *origin* of a fact (the allocation, the blocking call, the
   acquisition) keeps it out of the summary — the justification is
   taken to cover the callers too — and [[@wp.bounded "why"]] marks a
   loop (or every loop under a binding) as statically bounded.  A bare
   [wp.bounded] with no justification is recorded and reported by the
   caller. *)

open Typedtree

(* --- what the harvest needs to know from the Sentinel --- *)

type tables = {
  blocking : string list;  (* names whose reference can block *)
  allocators : string list;  (* names whose reference allocates *)
  stop_names : string list;  (* ident/field last components that count
                                as consulting the stop signal *)
  lock_of_text : unit_name:string -> string -> string option;
  helper_lock : unit_name:string -> string -> string option;
  is_helper : string -> bool;
  rank_of : string -> int option;
}

(* --- summaries --- *)

type loop_kind = While_loop | Self_recursion of string

type loop = {
  l_line : int;
  l_kind : loop_kind;
  l_consults : bool;  (* consults a stop signal inside the loop *)
  l_bounded : bool;  (* [for] body, or under [@wp.bounded "..."] *)
  l_refs : string list;  (* names referenced inside the loop *)
  l_allowed : string list;  (* rules [@wp.allow]-ed at the loop *)
}

type fn = {
  f_unit : string;
  f_path : string;  (* dotted path within the unit *)
  f_source : string;
  f_line : int;
  f_hot : bool;
  f_serve_entry : bool;
  f_refs : string list;
  f_blocks : string list;
  f_allocs : string list;
  f_acquires : (string * int option) list;
  f_consults : bool;
  f_loops : loop list;
  (* transitive facts, filled by [saturate] *)
  mutable t_blocks : string option;  (* witness chain *)
  mutable t_allocs : string option;
  mutable t_acquires : (string * int option) list;
  mutable t_consults : bool;
}

type naked_attr = { n_source : string; n_line : int }

type db = {
  fns : (string * string, fn) Hashtbl.t;  (* (unit, path) -> fn *)
  unit_names : (string, unit) Hashtbl.t;
  aliases : (string * string, string) Hashtbl.t;
      (* (unit, local module name) -> target module path *)
  mutable naked_bounded : naked_attr list;
      (* [@wp.bounded] with no justification *)
}

(* --- typedtree helpers, shared with the Sentinel's per-unit rules --- *)

let line (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let norm_path p =
  let s = Path.name p in
  if String.starts_with ~prefix:"Stdlib." s then
    String.sub s 7 (String.length s - 7)
  else s

let attr_string (a : Parsetree.attribute) =
  match a.Parsetree.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Parsetree.Pstr_eval
              ( {
                  pexp_desc =
                    Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _));
                  _;
                },
                _ );
          _;
        };
      ] ->
      Some s
  | _ -> None

let has_attr name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> a.Parsetree.attr_name.txt = name)
    attrs

type allow = { rule : string; justified : bool; aloc : Location.t }

let allows_of (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      if a.Parsetree.attr_name.txt <> "wp.allow" then None
      else
        let rule, justified =
          match attr_string a with
          | None -> ("", false)
          | Some s -> (
              let s = String.trim s in
              match String.index_opt s ' ' with
              | None -> (s, false)
              | Some i ->
                  let rest = String.sub s i (String.length s - i) in
                  (String.sub s 0 i, String.trim rest <> ""))
        in
        Some { rule; justified; aloc = a.Parsetree.attr_loc })
    attrs

(* [@wp.bounded "why"]: [Some true] = justified, [Some false] = bare. *)
let bounded_attr (attrs : Parsetree.attributes) =
  List.find_map
    (fun (a : Parsetree.attribute) ->
      if a.Parsetree.attr_name.txt <> "wp.bounded" then None
      else
        match attr_string a with
        | Some s when String.trim s <> "" -> Some true
        | _ -> Some false)
    attrs

(* Render the receiver of a lock operation for identity resolution and
   messages: [t.mutex], [shared.topk_mutex], [queue_mutex], ... *)
let rec render (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Path.last p
  | Texp_field (b, _, lbl) -> render b ^ "." ^ lbl.Types.lbl_name
  | _ -> "?"

(* [Mutex.lock m], [S.lock t.mutex], [t.lock ()]: an application whose
   head is an ident whose last component is exactly [lock], or a field
   access on a [lock] field.  Returns the rendered receiver text. *)
let lock_target (e : expression) =
  match e.exp_desc with
  | Texp_apply (head, args) -> (
      match head.exp_desc with
      | Texp_ident (p, _, _) when Path.last p = "lock" -> (
          match args with
          | (_, Some a) :: _ -> Some (render a)
          | _ -> Some "?")
      | Texp_field (b, _, lbl) when lbl.Types.lbl_name = "lock" ->
          Some (render b ^ ".lock")
      | _ -> None)
  | _ -> None

(* --- harvest --- *)

(* Formal parameters of a function body, outermost first; [None] for a
   non-variable pattern (e.g. [()]). *)
let rec formals (e : expression) =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } ->
      let name =
        match c.c_lhs.pat_desc with
        | Tpat_var (_, n) -> Some n.Asttypes.txt
        | _ -> None
      in
      let more, body = formals c.c_rhs in
      (name :: more, body)
  | _ -> ([], e)

(* An argument that syntactically cannot differ from the formal it
   feeds: a constant, a nullary constructor, or the formal itself. *)
let unchanged_arg formal (arg : expression) =
  match arg.exp_desc with
  | Texp_constant _ -> true
  | Texp_construct (_, _, []) -> true
  | Texp_ident (p, _, _) -> (
      match formal with Some n -> Path.last p = n | None -> true)
  | _ -> false

(* Does [body] apply [name] with every argument unchanged?  Such a
   self-call makes the recursion loop-shaped: nothing in the term
   shrinks toward a base case. *)
let self_call_unchanged name params (body : expression) =
  let found = ref false in
  let default = Tast_iterator.default_iterator in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
      when Path.last p = name && Path.name p = name ->
        let rec check i = function
          | [] -> true
          | (Asttypes.Nolabel, Some a) :: rest ->
              unchanged_arg (List.nth_opt params i |> Option.join) a
              && check (i + 1) rest
          | (_, Some a) :: rest -> unchanged_arg None a && check i rest
          | (_, None) :: rest -> check i rest
        in
        if args <> [] && check 0 args then found := true
    | _ -> ());
    default.expr it e
  in
  let it = { default with Tast_iterator.expr } in
  it.expr it body;
  !found

type loop_acc = {
  mutable a_consults : bool;
  mutable a_refs : string list;
  a_line : int;
  a_kind : loop_kind;
  a_bounded : bool;
  a_allowed : string list;
}

type harvest_state = {
  tables : tables;
  db : db;
  unit_name : string;
  source : string;
  mutable refs : string list;
  mutable blocks : string list;
  mutable allocs : string list;
  mutable acquires : (string * int option) list;
  mutable consults : bool;
  mutable loops : loop list;
  mutable loop_stack : loop_acc list;
  mutable allowed : string list;
  mutable bounded : bool;
}

let finish_loop st acc =
  st.loops <-
    {
      l_line = acc.a_line;
      l_kind = acc.a_kind;
      l_consults = acc.a_consults;
      l_bounded = acc.a_bounded;
      l_refs = acc.a_refs;
      l_allowed = acc.a_allowed;
    }
    :: st.loops

let in_loop st acc f =
  st.loop_stack <- acc :: st.loop_stack;
  Fun.protect
    ~finally:(fun () ->
      st.loop_stack <- List.tl st.loop_stack;
      finish_loop st acc)
    f

let note_ref st name =
  st.refs <- name :: st.refs;
  List.iter (fun acc -> acc.a_refs <- name :: acc.a_refs) st.loop_stack

let note_consult st =
  st.consults <- true;
  List.iter (fun acc -> acc.a_consults <- true) st.loop_stack

let last_component name =
  match String.rindex_opt name '.' with
  | None -> name
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)

(* Track attribute scopes ([@wp.allow], [@wp.bounded]) around [f]. *)
let with_attrs st (attrs : Parsetree.attributes) f =
  let saved_allowed = st.allowed and saved_bounded = st.bounded in
  st.allowed <- List.map (fun a -> a.rule) (allows_of attrs) @ st.allowed;
  (match bounded_attr attrs with
  | Some justified ->
      st.bounded <- true;
      if not justified then
        st.db.naked_bounded <-
          {
            n_source = st.source;
            n_line =
              (match attrs with
              | a :: _ -> line a.Parsetree.attr_loc
              | [] -> 0);
          }
          :: st.db.naked_bounded
  | None -> ());
  Fun.protect
    ~finally:(fun () ->
      st.allowed <- saved_allowed;
      st.bounded <- saved_bounded)
    f

let scan_body st (body : expression) =
  let default = Tast_iterator.default_iterator in
  let visit it (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) ->
        let n = norm_path p in
        note_ref st n;
        if
          List.mem n st.tables.blocking
          && not (List.mem "blocking-under-lock" st.allowed)
        then st.blocks <- n :: st.blocks;
        if
          List.mem n st.tables.allocators
          && not (List.mem "hot-alloc" st.allowed)
        then st.allocs <- n :: st.allocs;
        if List.mem (last_component n) st.tables.stop_names then
          note_consult st
    | Texp_field (b, _, lbl) ->
        if List.mem lbl.Types.lbl_name st.tables.stop_names then
          note_consult st;
        default.expr it b
    | Texp_while (cond, wbody) ->
        let acc =
          {
            a_consults = false;
            a_refs = [];
            a_line = line e.exp_loc;
            a_kind = While_loop;
            a_bounded = st.bounded;
            a_allowed = st.allowed;
          }
        in
        in_loop st acc (fun () ->
            it.Tast_iterator.expr it cond;
            it.Tast_iterator.expr it wbody)
    | Texp_let (Asttypes.Recursive, vbs, cont) ->
        List.iter
          (fun vb ->
            with_attrs st vb.vb_attributes (fun () ->
                match vb.vb_pat.pat_desc with
                | Tpat_var (_, name) ->
                    let params, fbody = formals vb.vb_expr in
                    if
                      params <> []
                      && self_call_unchanged name.Asttypes.txt params fbody
                    then
                      let acc =
                        {
                          a_consults = false;
                          a_refs = [];
                          a_line = line vb.vb_loc;
                          a_kind = Self_recursion name.Asttypes.txt;
                          a_bounded = st.bounded;
                          a_allowed = st.allowed;
                        }
                      in
                      in_loop st acc (fun () ->
                          it.Tast_iterator.expr it vb.vb_expr)
                    else it.Tast_iterator.expr it vb.vb_expr
                | _ -> it.Tast_iterator.expr it vb.vb_expr))
          vbs;
        it.Tast_iterator.expr it cont
    | Texp_apply (head, _) ->
        (match head.exp_desc with
        | Texp_ident (p, _, _)
          when st.tables.is_helper (Path.last p)
               && not (List.mem "lock-rank" st.allowed) -> (
            match
              st.tables.helper_lock ~unit_name:st.unit_name (Path.last p)
            with
            | Some name ->
                st.acquires <- (name, st.tables.rank_of name) :: st.acquires
            | None -> ())
        | _ -> ());
        (match lock_target e with
        | Some text when not (List.mem "lock-rank" st.allowed) ->
            let name = st.tables.lock_of_text ~unit_name:st.unit_name text in
            let display = match name with Some n -> n | None -> text in
            let rank = Option.join (Option.map st.tables.rank_of name) in
            st.acquires <- (display, rank) :: st.acquires
        | _ -> ());
        default.expr it e
    | _ -> default.expr it e
  in
  let it =
    {
      default with
      Tast_iterator.expr =
        (fun it e -> with_attrs st e.exp_attributes (fun () -> visit it e));
    }
  in
  it.expr it body

let harvest_binding tables db ~unit_name ~source ~path vb rec_flag =
  match vb.vb_pat.pat_desc with
  | Tpat_var (_, name) ->
      let fpath = String.concat "." (path @ [ name.Asttypes.txt ]) in
      let st =
        {
          tables;
          db;
          unit_name;
          source;
          refs = [];
          blocks = [];
          allocs = [];
          acquires = [];
          consults = false;
          loops = [];
          loop_stack = [];
          allowed = [];
          bounded = false;
        }
      in
      with_attrs st vb.vb_attributes (fun () ->
          (* A top-level [let rec] whose self-calls never change an
             argument is itself a suspect loop. *)
          (match rec_flag with
          | Asttypes.Recursive ->
              let params, fbody = formals vb.vb_expr in
              if
                params <> []
                && self_call_unchanged name.Asttypes.txt params fbody
              then
                let acc =
                  {
                    a_consults = false;
                    a_refs = [];
                    a_line = line vb.vb_loc;
                    a_kind = Self_recursion name.Asttypes.txt;
                    a_bounded = st.bounded;
                    a_allowed = st.allowed;
                  }
                in
                in_loop st acc (fun () -> scan_body st vb.vb_expr)
              else scan_body st vb.vb_expr
          | Asttypes.Nonrecursive -> scan_body st vb.vb_expr);
          let fn =
            {
              f_unit = unit_name;
              f_path = fpath;
              f_source = source;
              f_line = line vb.vb_loc;
              f_hot = has_attr "wp.hot" vb.vb_attributes;
              f_serve_entry = has_attr "wp.serve_entry" vb.vb_attributes;
              f_refs = List.rev st.refs;
              f_blocks = List.rev st.blocks;
              f_allocs = List.rev st.allocs;
              f_acquires = List.rev st.acquires;
              f_consults = st.consults;
              f_loops = List.rev st.loops;
              t_blocks = None;
              t_allocs = None;
              t_acquires = [];
              t_consults = false;
            }
          in
          Hashtbl.replace db.fns (unit_name, fpath) fn)
  | _ -> ()

let rec harvest_structure tables db ~unit_name ~source ~path (str : structure)
    =
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_value (rf, vbs) ->
          List.iter
            (fun vb -> harvest_binding tables db ~unit_name ~source ~path vb rf)
            vbs
      | Tstr_module mb -> (
          match mb.mb_id with
          | Some id ->
              harvest_module tables db ~unit_name ~source
                ~path:(path @ [ Ident.name id ])
                ~name:(Ident.name id) mb.mb_expr
          | None -> ())
      | Tstr_recmodule mbs ->
          List.iter
            (fun mb ->
              match mb.mb_id with
              | Some id ->
                  harvest_module tables db ~unit_name ~source
                    ~path:(path @ [ Ident.name id ])
                    ~name:(Ident.name id) mb.mb_expr
              | None -> ())
            mbs
      | _ -> ())
    str.str_items

and harvest_module tables db ~unit_name ~source ~path ~name
    (me : module_expr) =
  match me.mod_desc with
  | Tmod_structure s -> harvest_structure tables db ~unit_name ~source ~path s
  | Tmod_constraint (me, _, _, _) ->
      harvest_module tables db ~unit_name ~source ~path ~name me
  | Tmod_functor (_, body) ->
      harvest_module tables db ~unit_name ~source ~path ~name body
  | Tmod_ident (p, _) when path = [ name ] ->
      (* top-level [module N = Other.Path]: record the alias so
         [N.f] references resolve through it *)
      Hashtbl.replace db.aliases (unit_name, name) (Path.name p)
  | _ -> ()

(* --- resolution --- *)

let join_units acc comp =
  if acc = "" then comp
  else if String.ends_with ~suffix:"_" acc then acc ^ comp
  else acc ^ "__" ^ comp

let resolve_global db ~unit_name name =
  let try_key u p = Hashtbl.find_opt db.fns (u, p) in
  let parts = String.split_on_char '.' name in
  let parts =
    match parts with
    | hd :: tl -> (
        match Hashtbl.find_opt db.aliases (unit_name, hd) with
        | Some target -> String.split_on_char '.' target @ tl
        | None -> parts)
    | [] -> parts
  in
  match parts with
  | [] -> None
  | [ p ] -> try_key unit_name p
  | _ -> (
      (* a nested-module path within the same unit... *)
      match try_key unit_name (String.concat "." parts) with
      | Some f -> Some f
      | None ->
          (* ...or a (possibly alias-spelled) other unit *)
          let rec guess acc = function
            | [] | [ _ ] -> None
            | comp :: rest -> (
                let acc = join_units acc comp in
                if Hashtbl.mem db.unit_names acc then
                  match try_key acc (String.concat "." rest) with
                  | Some f -> Some f
                  | None -> guess acc rest
                else guess acc rest)
          in
          guess "" parts)

(* A name spelled inside module [scope] of its unit ([["Make"]] for a
   functor's body) means the innermost enclosing module that binds
   it, so [emit] inside [Make] is [Make.emit] and [Shared_queue.push]
   is [Make.Shared_queue.push]. *)
let resolve db ~unit_name ~scope name =
  let rec within = function
    | [] -> resolve_global db ~unit_name name
    | _ :: outer as rev_scope -> (
        let path = String.concat "." (List.rev (name :: rev_scope)) in
        match Hashtbl.find_opt db.fns (unit_name, path) with
        | Some f -> Some f
        | None -> within outer)
  in
  within (List.rev scope)

(* A name [f]'s body references, resolved in the module enclosing
   [f]'s binding. *)
let resolve_ref db f name =
  let scope = List.rev (List.tl (List.rev (String.split_on_char '.' f.f_path))) in
  resolve db ~unit_name:f.f_unit ~scope name

(* --- the fixpoint --- *)

let short_path fn = fn.f_path

let merge_acquires existing extra =
  List.fold_left
    (fun acc ((name, _) as a) ->
      if List.mem_assoc name acc then acc else a :: acc)
    existing extra

let saturate db =
  Hashtbl.iter
    (fun _ f ->
      (match f.f_blocks with b :: _ -> f.t_blocks <- Some b | [] -> ());
      (match f.f_allocs with a :: _ -> f.t_allocs <- Some a | [] -> ());
      f.t_acquires <- merge_acquires [] f.f_acquires;
      f.t_consults <- f.f_consults)
    db.fns;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun _ f ->
        List.iter
          (fun r ->
            match resolve_ref db f r with
            | None -> ()
            | Some g when g == f -> ()
            | Some g ->
                (match (f.t_blocks, g.t_blocks) with
                | None, Some w ->
                    f.t_blocks <- Some (short_path g ^ " -> " ^ w);
                    changed := true
                | _ -> ());
                (match (f.t_allocs, g.t_allocs) with
                | None, Some w ->
                    f.t_allocs <- Some (short_path g ^ " -> " ^ w);
                    changed := true
                | _ -> ());
                let merged = merge_acquires f.t_acquires g.t_acquires in
                if List.length merged <> List.length f.t_acquires then begin
                  f.t_acquires <- merged;
                  changed := true
                end;
                if g.t_consults && not f.t_consults then begin
                  f.t_consults <- true;
                  changed := true
                end)
          f.f_refs)
      db.fns
  done

let build tables (units : Discover.unit_info list) =
  let db =
    {
      fns = Hashtbl.create 512;
      unit_names = Hashtbl.create 64;
      aliases = Hashtbl.create 64;
      naked_bounded = [];
    }
  in
  List.iter
    (fun (u : Discover.unit_info) ->
      Hashtbl.replace db.unit_names u.Discover.modname ())
    units;
  List.iter
    (fun (u : Discover.unit_info) ->
      harvest_structure tables db ~unit_name:u.Discover.modname
        ~source:u.Discover.source ~path:[] u.Discover.structure)
    units;
  saturate db;
  db

(* --- reachability (for the cancellation-totality rule) --- *)

let reachable_from_roots db ~is_root =
  let seen = Hashtbl.create 256 in
  let queue = Queue.create () in
  Hashtbl.iter
    (fun key f -> if is_root f then Queue.add key queue)
    db.fns;
  while not (Queue.is_empty queue) do
    let key = Queue.pop queue in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      match Hashtbl.find_opt db.fns key with
      | None -> ()
      | Some f ->
          List.iter
            (fun r ->
              match resolve_ref db f r with
              | Some g ->
                  let gk = (g.f_unit, g.f_path) in
                  if not (Hashtbl.mem seen gk) then Queue.add gk queue
              | None -> ())
            f.f_refs
    end
  done;
  seen

let iter_fns db f = Hashtbl.iter (fun _ fn -> f fn) db.fns
