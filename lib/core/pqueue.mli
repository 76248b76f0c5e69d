(** Max-priority queue with deterministic FIFO tie-breaking.

    Server and router queues order partial matches by a float priority
    (e.g. maximum possible final score); equal priorities pop in
    insertion order so runs are reproducible. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : ?tie:float -> 'a t -> float -> 'a -> unit
(** [push q priority x] — higher priorities pop first.  Elements with
    equal priority pop by descending [tie] (default [0.]), then FIFO. *)

val pop : 'a t -> 'a option
val pop_with_priority : 'a t -> (float * 'a) option
val peek : 'a t -> 'a option
val max_priority : 'a t -> float
(** The top priority, [neg_infinity] when empty; allocation-free. *)

val max_tie : 'a t -> float
(** The top element's tie-break key, [neg_infinity] when empty;
    allocation-free. *)

val clear : 'a t -> unit

val drain : 'a t -> 'a list
(** Pop everything, best first. *)
