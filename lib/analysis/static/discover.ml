(* Locating and loading the .cmt files the Sentinel checks.

   Dune drops one .cmt per compiled module under
   [<dir>/.<lib>.objs/byte/]; walking the build tree for them is how
   the Sentinel sees the repo's own typedtrees without re-running the
   type-checker.  Discovery is rooted at a build directory (usually
   [_build/default]) and restricted to the production source trees —
   [test/] is deliberately out so known-bad fixture modules never count
   against the clean-tree gate. *)

let default_dirs = [ "lib"; "bin"; "examples"; "bench" ]

let is_dir path = try Sys.is_directory path with Sys_error _ -> false

let rec walk acc dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.fold_left
        (fun acc name ->
          let path = Filename.concat dir name in
          if is_dir path then if name = ".git" then acc else walk acc path
          else if Filename.check_suffix name ".cmt" then path :: acc
          else acc)
        acc entries

let find_cmts ?(dirs = default_dirs) root =
  let roots =
    List.filter (fun p -> is_dir p)
      (List.map (fun d -> Filename.concat root d) dirs)
  in
  List.sort String.compare (List.fold_left walk [] roots)

type unit_info = {
  modname : string;  (** e.g. ["Whirlpool__Topk_set"] *)
  source : string;  (** source path recorded in the cmt, for messages *)
  structure : Typedtree.structure;
}

let load path =
  match Cmt_format.read_cmt path with
  | exception exn ->
      Error (Printf.sprintf "%s: cannot read cmt (%s)" path
               (Printexc.to_string exn))
  | cmt -> (
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation structure ->
          let source =
            match cmt.Cmt_format.cmt_sourcefile with
            | Some s -> s
            | None -> cmt.Cmt_format.cmt_modname
          in
          Ok { modname = cmt.Cmt_format.cmt_modname; source; structure }
      | _ -> Error (path ^ ": not an implementation cmt"))
