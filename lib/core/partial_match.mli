(** Partial matches — the tuples flowing through the Whirlpool system.

    A partial match binds a document node to each pattern node whose
    server has processed it (or records that the node stayed unbound,
    for optional nodes with no candidate).  Scores grow monotonically as
    servers bind nodes; [max_possible] adds the best weight of every
    unvisited server and therefore shrinks monotonically, which is what
    makes pruning against the top-k threshold safe. *)

type t = {
  id : int;  (** unique per run; ties in priority queues break on it *)
  bindings : int array;
      (** by pattern node id; [unbound] when the node is not (yet)
          bound *)
  mutable visited_mask : int;  (** bit [s] set once server [s] processed it *)
  mutable score : float;
  mutable max_possible : float;  (** maximum possible final score *)
}

val unbound : int
(** The sentinel (-1) used in [bindings]. *)

val root_binding : t -> int
(** The document node bound at the pattern root (always present). *)

val create_root : plan_servers:int -> id:int -> root:int -> weight:float ->
  max_rest:float -> t
(** A fresh match produced by the root server: [weight] is the root
    binding's score contribution, [max_rest] the sum of the other
    servers' best weights. *)

val visited : t -> int -> bool
val is_complete : t -> full_mask:int -> bool

val unvisited_servers : t -> n_servers:int -> int list

val extend : t -> id:int -> server:int -> binding:int option -> weight:float ->
  server_max:float -> t
(** Copy of the match with [server] marked visited, bound to [binding]
    (or left unbound), its score raised by [weight] and its maximum
    possible score lowered by [server_max - weight]. *)

val extend_last : t -> id:int -> server:int -> binding:int option ->
  weight:float -> server_max:float -> t
(** As {!extend}, but the parent's bindings array is transferred to the
    extension instead of copied — the common single-extension case pays
    no allocation for the array.  The parent must not be extended again
    and its bindings must not be read afterwards (its root binding,
    scores and visited mask stay valid). *)

val n_visited : t -> int
(** Number of servers that have processed the match (popcount of the
    visited mask). *)

val bound : t -> int -> int option
(** Binding of a pattern node, if the node is bound. *)
