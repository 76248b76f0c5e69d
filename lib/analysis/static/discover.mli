(** Locating and loading the repo's own [.cmt] typedtree files. *)

val default_dirs : string list
(** The production source trees scanned by default:
    [lib bin examples bench] — never [test]. *)

val find_cmts : ?dirs:string list -> string -> string list
(** [find_cmts root] walks [root/<dir>] for every [dir] in [dirs]
    (default {!default_dirs}) and returns the [.cmt] files found, in a
    deterministic (sorted) order.  Directories that do not exist are
    skipped. *)

type unit_info = {
  modname : string;  (** e.g. ["Whirlpool__Topk_set"] *)
  source : string;  (** source path recorded in the cmt, for messages *)
  structure : Typedtree.structure;
}

val load : string -> (unit_info, string) result
(** Read one [.cmt].  [Error] on unreadable files or cmts that do not
    carry an implementation typedtree. *)
