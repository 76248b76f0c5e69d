(** Bit-twiddling helpers for the engines' visited masks and the
    64-posting word scans over a plan's bitsets. *)

val popcount64 : int64 -> int
(** Set bits of a word, SWAR. *)

val lowest_bit : int64 -> int
(** The position of the lowest set bit of a nonzero word. *)

val popcount : int -> int
(** Set bits of a non-negative int.
    @raise Invalid_argument on a negative mask. *)
